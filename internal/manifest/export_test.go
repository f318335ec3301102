package manifest

// Scan exposes the fast path to the external corpus test, which must
// import packages that themselves import this one.
var Scan = scan
