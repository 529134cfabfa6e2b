package ingest

// Test-only views of pipeline state, for the external ingest_test
// package.

// PolicyReport summarizes the pipeline's backpressure activity; the
// zero report when no policy is configured.
func (p *Pipeline) PolicyReport() PolicyReport {
	if p.pol == nil {
		return PolicyReport{}
	}
	return p.pol.rep
}

// Fed returns the number of raw samples pushed through the prefilter.
func (p *Pipeline) Fed() int { return p.rawFed }
