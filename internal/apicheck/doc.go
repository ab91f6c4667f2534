// Package apicheck holds no code of its own. Its test type-checks every
// non-test Go file of this module and of the benchmark module under bench/
// and fails on any exported function, method, variable or constant under
// internal/ that only test files use, so capabilities that nothing runs do
// not accumulate:
//
//	go test ./internal/apicheck/
//
// A name is used when code reachable from outside internal/ (the commands,
// examples, the root package and the benchmark) refers to it, directly or
// through other used declarations. A method whose name and signature match
// an interface method counts as used when its receiver type is. Names that
// serve only tests on purpose sit in the test's allowlist with the reason.
package apicheck
