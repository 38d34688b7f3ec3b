package transport

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fences the package: every goroutine a test starts — test
// servers, client connections, streamed responses — must have exited
// within five seconds of the last test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
