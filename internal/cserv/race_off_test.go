//go:build !race

package cserv

const raceEnabled = false
