package geoblocks

// PinHybrid makes e answer every request the hierarchy can serve through
// interior fold + fringe refine, whatever its fringe costs, and returns e.
// The proof suites use it: they compare the hybrid itself to the raster
// join, on shapes and levels where the cost rule would decline.
func PinHybrid(e *Engine) *Engine {
	e.pinHybrid = true
	return e
}
