package extract

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fences the package: every goroutine a test starts — rule
// executions, source fan-out, stream producers, and the fetch a timed-out
// rule abandons — must have exited within five seconds of the last
// test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
