// Package leakcheck is the goroutine fence of the repository's tests: a
// test (or a whole package's TestMain) records the goroutine count before
// it starts work and, once the work returned, waits for the count to fall
// back. Goroutines that outlive their work show up as a count that never
// settles, reported with every goroutine's stack.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// window is how long Settle waits for stragglers: long enough for a
// goroutine abandoned on a timeout to finish its sleep or fetch, short
// enough that a real leak fails the run quickly.
const window = 5 * time.Second

// Settle waits up to five seconds for the goroutine count to fall back to
// before. It returns "" once it has; otherwise a report with the counts
// and every goroutine's stack.
func Settle(before int) string {
	deadline := time.Now().Add(window)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Sprintf("goroutines: %d before, %d after %v\n%s",
				before, runtime.NumGoroutine(), window, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ""
}

// Main runs a package's tests behind the fence and exits: a passing run
// whose goroutines do not settle within five seconds prints the report and
// exits 1. Call it from TestMain. A fuzzing run (-test.fuzz) is not
// fenced: the fuzzing engine's own signal watcher outlives m.Run.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !fuzzing() {
		if report := Settle(before); report != "" {
			fmt.Fprintln(os.Stderr, "leakcheck:", report)
			code = 1
		}
	}
	os.Exit(code)
}

// fuzzing reports whether the test binary runs a fuzz target.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}
