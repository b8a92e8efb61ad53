package graph

// RandomEdgeStream lets the external test package build the same
// collision-heavy multigraphs as the internal tests.
var RandomEdgeStream = randomEdgeStream
