package integration

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fences the package: every goroutine a test starts — servers,
// clusters, chaos runs and the fetches they abandon — must have exited
// within five seconds of the last test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
