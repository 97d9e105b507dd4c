module colibri/bench

go 1.22

require colibri v0.0.0

replace colibri => ../
