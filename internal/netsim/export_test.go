package netsim

// RunReference exposes the global-key-order oracle (reference_test.go) to
// the external test package.
var RunReference = runReference
