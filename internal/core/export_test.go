package core

// SetBlockPrune turns zone-map block pruning on r on or off and returns r.
// Pruning is always on outside tests; the segment equivalence suite turns
// it off for the reference scan that decodes and draws every block, and
// requires the same bits from both.
func SetBlockPrune(r *RasterJoin, on bool) *RasterJoin {
	r.blockPrune = on
	return r
}
