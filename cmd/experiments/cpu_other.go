//go:build !unix

package main

// cpuSeconds is 0 where getrusage is missing: the "done in" line then
// reports no CPU time.
func cpuSeconds() float64 { return 0 }
