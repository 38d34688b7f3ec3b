package cluster

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fences the package: every goroutine a test starts — node
// servers, scatter requests, hedged calls — must have exited within five
// seconds of the last test.
func TestMain(m *testing.M) { leakcheck.Main(m) }
