package gpu

// Texture is a single-channel float64 render-target attachment. Raster Join
// binds two of these per pass: a per-pixel point count and a per-pixel
// attribute sum. Additive blending is expressed through Add, matching
// glBlendFunc(GL_ONE, GL_ONE) on a float framebuffer.
type Texture struct {
	W, H int
	// Data is the row-major pixel storage, exposed for bulk readback
	// (glReadPixels equivalent) by the join kernels.
	Data []float64
}

// NewTexture returns a cleared w×h texture.
func NewTexture(w, h int) *Texture {
	return &Texture{W: w, H: h, Data: make([]float64, w*h)}
}

// At returns the value at pixel (x,y).
func (t *Texture) At(x, y int) float64 { return t.Data[y*t.W+x] }

// Add accumulates v into pixel (x,y) — additive blending.
func (t *Texture) Add(x, y int, v float64) { t.AddAt(y*t.W+x, v) }

// AddAt is Add for the pixel at row-major index i.
func (t *Texture) AddAt(i int, v float64) { t.Data[i] += v }

// Clear zeroes the texture, retaining its allocation.
func (t *Texture) Clear() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every pixel to v (used to initialize MIN/MAX render targets to
// ±Inf before blending).
func (t *Texture) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// TakeMinAt lowers the pixel at row-major index i to v when v is smaller —
// the MIN blend equation (glBlendEquation(GL_MIN)).
func (t *Texture) TakeMinAt(i int, v float64) {
	if v < t.Data[i] {
		t.Data[i] = v
	}
}

// TakeMaxAt raises the pixel at row-major index i to v when v is larger —
// the MAX blend equation.
func (t *Texture) TakeMaxAt(i int, v float64) {
	if v > t.Data[i] {
		t.Data[i] = v
	}
}
