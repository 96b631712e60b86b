package geom

// ClipToBox exposes clipToBox to the package's external tests.
var ClipToBox = clipToBox
