package instance

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fences the package: any goroutine a test starts, directly or
// through the code under test, must have exited within five seconds of
// the last test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
