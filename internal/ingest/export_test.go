package ingest

// Test-only views of pipeline state, for the external ingest_test
// package.

// Fed returns the number of raw samples pushed through the prefilter.
func (p *Pipeline) Fed() int { return p.rawFed }
