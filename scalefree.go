// Package scalefree builds and evaluates scale-free overlay topologies
// with hard degree cutoffs for unstructured peer-to-peer networks,
// implementing Guclu & Yuksel, "Scale-Free Overlay Topologies with Hard
// Cutoffs for Unstructured Peer-to-Peer Networks" (ICDCS 2007).
//
// This package is the entry point the command-line tools and examples use;
// it exposes each layer of the library through the calls they need:
//
//   - Topology generators (GeneratePA, GenerateCM, GenerateHAPA,
//     GenerateDAPA, plus substrates and baselines): build overlay graphs
//     with or without per-peer hard cutoffs kc, using global information
//     (PA, CM) or only local information (HAPA, DAPA).
//   - Search algorithms (Flood, NormalizedFlood, RandomWalkWithNFBudget,
//     and SearchScratch for repeated searches on one topology): measure
//     hits and messaging per TTL on any generated topology.
//   - A content layer (NewCatalog, Replicate, ExpectedSearchSize): Zipf
//     item popularity and the Cohen–Shenker replication strategies the
//     searches ultimately serve.
//   - A churn laboratory (NewChurnSimulator): the paper's §VI join/leave
//     future work as a deterministic graph-level simulation.
//   - A live overlay runtime (NewOverlay, NewPeer): the same join and
//     search protocols as actual message-passing code, one goroutine per
//     peer, with in-memory or TCP transports and optional uncooperative
//     Behavior models.
//
// # Quick start
//
//	rng := scalefree.NewRNG(42)
//	g, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: 10000, M: 2, KC: 40}, rng)
//	if err != nil { ... }
//	res, err := scalefree.Flood(g, 0, 8)
//	fmt.Println(res.Hits) // nodes discovered per TTL
//
// The experiment harness that regenerates every figure and table of the
// paper lives in internal/sim and is driven by cmd/experiments; see
// EXPERIMENTS.md for the paper-vs-measured record.
package scalefree

import (
	"io"

	"scalefree/internal/churn"
	"scalefree/internal/content"
	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/metrics"
	"scalefree/internal/p2p"
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// Graph is an undirected (multi)graph over dense node IDs; see the methods
// on graph.Graph for traversal, components, distances, and serialization.
type Graph = graph.Graph

// FrozenTopology is a compressed-sparse-row (CSR) snapshot of a Graph: the
// read-only fast path every search kernel and structural metric runs on.
// Freeze a generated topology once, let the mutable Graph be collected,
// and run any number of searches against the snapshot — neighbor order is
// preserved, so results are bit-for-bit identical to searching the Graph
// directly.
type FrozenTopology = graph.Frozen

// Freeze snapshots g into CSR form. The convenience functions below that
// accept a *Graph freeze internally per call; hot loops (many searches or
// metrics on one topology) should Freeze once and use the
// *FrozenTopology-based APIs (SearchScratch methods, Graph-method
// counterparts on FrozenTopology).
func Freeze(g *Graph) *FrozenTopology { return g.Freeze() }

// ReadEdgeList parses the edge-list format written by Graph.WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// RNG is the library's deterministic random number generator; every
// generator and randomized search takes one explicitly.
type RNG = xrand.RNG

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// NoCutoff disables the hard degree cutoff (kc = ∞).
const NoCutoff = gen.NoCutoff

// Topology generator configurations and results (see internal/gen for the
// full documentation of each mechanism).
type (
	// PAConfig parameterizes preferential attachment with hard cutoffs.
	PAConfig = gen.PAConfig
	// CMConfig parameterizes the configuration model.
	CMConfig = gen.CMConfig
	// HAPAConfig parameterizes Hop-and-Attempt preferential attachment.
	HAPAConfig = gen.HAPAConfig
	// DAPAConfig parameterizes Discover-and-Attempt preferential
	// attachment on a substrate network.
	DAPAConfig = gen.DAPAConfig
	// GRNConfig parameterizes geometric random (substrate) networks.
	GRNConfig = gen.GRNConfig
	// GenStats reports generation-time events (rejections, fallbacks,
	// cleanup counts).
	GenStats = gen.Stats
	// DAPAOverlay is a DAPA result: overlay graph plus substrate mapping.
	DAPAOverlay = gen.Overlay
)

// GeneratePA builds a preferential-attachment topology (Appendix A).
func GeneratePA(cfg PAConfig, rng *RNG) (*Graph, GenStats, error) { return gen.PA(cfg, rng) }

// GenerateCM builds a configuration-model topology with a power-law degree
// sequence (Appendix B).
func GenerateCM(cfg CMConfig, rng *RNG) (*Graph, GenStats, error) { return gen.CM(cfg, rng) }

// GenerateHAPA builds a Hop-and-Attempt topology (Appendix C).
func GenerateHAPA(cfg HAPAConfig, rng *RNG) (*Graph, GenStats, error) { return gen.HAPA(cfg, rng) }

// GenerateDAPA grows a Discover-and-Attempt overlay on the given substrate
// (Appendix D). Build a substrate first with GenerateGRN or GenerateMesh.
func GenerateDAPA(substrate *Graph, cfg DAPAConfig, rng *RNG) (*DAPAOverlay, GenStats, error) {
	return gen.DAPA(substrate, cfg, rng)
}

// GenerateGRN builds a geometric random network substrate and returns node
// coordinates alongside the graph.
func GenerateGRN(cfg GRNConfig, rng *RNG) (*Graph, []gen.Point, error) { return gen.GRN(cfg, rng) }

// GenerateMesh builds a width×height 2-D grid substrate.
func GenerateMesh(width, height int) (*Graph, error) { return gen.Mesh(width, height) }

// GenerateER builds an Erdős–Rényi G(n, M) baseline.
func GenerateER(n, edges int, rng *RNG) (*Graph, error) { return gen.ER(n, edges, rng) }

// GenerateWattsStrogatz builds a small-world baseline.
func GenerateWattsStrogatz(n, k int, beta float64, rng *RNG) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, rng)
}

// SearchResult is the per-TTL outcome (hits, messages) of one search.
type SearchResult = search.Result

// Flood runs flooding search (FL, §V-A1) from src up to maxTTL hops.
func Flood(g *Graph, src, maxTTL int) (SearchResult, error) {
	var s search.Scratch
	return s.Flood(g.Freeze(), src, maxTTL)
}

// NormalizedFlood runs NF search (§V-A2) with fan-out kMin.
func NormalizedFlood(g *Graph, src, maxTTL, kMin int, rng *RNG) (SearchResult, error) {
	var s search.Scratch
	return s.NormalizedFlood(g.Freeze(), src, maxTTL, kMin, rng)
}

// RandomWalkWithNFBudget runs RW normalized to NF's message budget, the
// paper's fair-comparison protocol (§V-B).
func RandomWalkWithNFBudget(g *Graph, src, maxTTL, kMin int, rng *RNG) (rw, nf SearchResult, err error) {
	var s search.Scratch
	return s.RandomWalkWithNFBudget(g.Freeze(), src, maxTTL, kMin, rng)
}

// SearchScratch owns reusable search state (visited bitset, frontier
// queues, result arena) so repeated Flood/NF/RW calls on one topology
// allocate nothing. One scratch per goroutine; results returned by its
// methods are valid until the next call on the same scratch. A scratch
// must not be copied after first use — copies share backing arrays; pass
// *SearchScratch and create new ones with NewSearchScratch.
type SearchScratch = search.Scratch

// NewSearchScratch returns a search scratch pre-sized for n-node graphs
// (n may be 0; buffers grow on demand).
func NewSearchScratch(n int) *SearchScratch { return search.NewScratch(n) }

// Structural metrics and robustness analysis (§III's "robust yet
// fragile").
type (
	// RemovalStrategy selects failure vs attack node removal.
	RemovalStrategy = metrics.RemovalStrategy
	// RobustnessPoint is one (removed fraction, giant fraction) sample.
	RobustnessPoint = metrics.RobustnessPoint
)

// Node-removal strategies for Robustness.
const (
	RemoveRandom        = metrics.RemoveRandom
	RemoveHighestDegree = metrics.RemoveHighestDegree
)

// GlobalClustering returns the graph's transitivity.
func GlobalClustering(g *Graph) float64 { return metrics.GlobalClustering(g.Freeze()) }

// DegreeAssortativity returns Newman's degree-correlation coefficient r.
func DegreeAssortativity(g *Graph) (float64, error) { return metrics.DegreeAssortativity(g.Freeze()) }

// Robustness measures giant-component survival under progressive node
// removal (random failures or targeted hub attacks).
func Robustness(g *Graph, strategy RemovalStrategy, stepFrac, maxFrac float64, rng *RNG) ([]RobustnessPoint, error) {
	return metrics.Robustness(g, strategy, stepFrac, maxFrac, rng)
}

// Degree-distribution analysis.
type (
	// DegreeDist is a normalized degree distribution P(k).
	DegreeDist = stats.DegreeDist
	// PowerLawFit is a fitted degree exponent with its standard error.
	PowerLawFit = stats.PowerLawFit
)

// DegreeDistribution computes P(k) for a graph.
func DegreeDistribution(g *Graph) DegreeDist { return stats.NewDegreeDist(g.DegreeHistogram()) }

// FitDegreeExponent fits P(k) ~ k^-gamma on logarithmically binned data
// for degrees in [kMin, kMax] (kMax <= 0 unbounded), the paper's fitting
// procedure.
func FitDegreeExponent(d DegreeDist, kMin, kMax int) (PowerLawFit, error) {
	return stats.FitPowerLawBinned(d, 1.5, kMin, kMax)
}

// DegreeGini returns the Gini coefficient of the graph's degree sequence —
// the load-fairness measure behind the paper's motivation for hard cutoffs.
func DegreeGini(g *Graph) float64 { return stats.Gini(g.DegreeSequence()) }

// TopLoadShare returns the fraction of all links held by the top `frac`
// share of peers (e.g. 0.01 for the top 1%).
func TopLoadShare(g *Graph, frac float64) float64 { return stats.TopShare(g.DegreeSequence(), frac) }

// NaturalCutoff returns the Dorogovtsev et al. natural degree cutoff
// m·N^(1/(γ-1)) (paper Eq. 4), the scale hard cutoffs are compared
// against.
func NaturalCutoff(n, m int, gamma float64) float64 {
	return stats.NaturalCutoffDorogovtsev(n, m, gamma)
}

// Live overlay runtime (see internal/p2p).
type (
	// Peer is one live overlay participant (goroutine + mailbox).
	Peer = p2p.Peer
	// PeerConfig parameterizes a live peer.
	PeerConfig = p2p.Config
	// Overlay manages an in-process population of live peers.
	Overlay = p2p.Overlay
	// OverlayConfig parameterizes an overlay population.
	OverlayConfig = p2p.OverlayConfig
	// Network abstracts the transport (in-memory or TCP).
	Network = p2p.Network
	// QueryResult is the outcome of one live content search.
	QueryResult = p2p.QueryResult
	// JoinStrategy selects the live join protocol.
	JoinStrategy = p2p.JoinStrategy
	// SearchAlg names a live search algorithm.
	SearchAlg = p2p.Alg
)

// Live join strategies and search algorithms.
const (
	JoinRandom = p2p.JoinRandom
	JoinDAPA   = p2p.JoinDAPA
	JoinHAPA   = p2p.JoinHAPA

	SearchFlood = p2p.AlgFlood
	SearchNF    = p2p.AlgNF
	SearchRW    = p2p.AlgRW
)

// NewOverlay creates an empty in-process overlay population.
func NewOverlay(cfg OverlayConfig) (*Overlay, error) { return p2p.NewOverlay(cfg) }

// NewPeer starts one live peer on the given transport.
func NewPeer(cfg PeerConfig, net Network) (*Peer, error) { return p2p.NewPeer(cfg, net) }

// NewTCPNetwork returns a TCP transport (one length-prefixed frame per
// message: a JSON header, then the raw payload bytes).
func NewTCPNetwork() *p2p.TCPNetwork { return p2p.NewTCPNetwork() }

// Content layer: items, Zipf popularity, and the Cohen–Shenker replication
// strategies (paper refs [22], [23]), with random-walk expected-search-size
// and flooding success-rate measurements.
type (
	// Item identifies one data item in a catalog.
	Item = content.Item
	// Catalog is a set of items with Zipf-distributed query popularity.
	Catalog = content.Catalog
	// ReplicationStrategy selects uniform / proportional / square-root
	// replica allocation.
	ReplicationStrategy = content.Strategy
	// Placement records which nodes host which items.
	Placement = content.Placement
	// ESSResult aggregates random-walk query resolution (expected search
	// size) over a workload.
	ESSResult = content.ESSResult
	// FloodQueryResult aggregates flooding query resolution over a
	// workload.
	FloodQueryResult = content.FloodResult
)

// Replication strategies (Cohen & Shenker).
const (
	ReplicateUniform      = content.Uniform
	ReplicateProportional = content.Proportional
	ReplicateSquareRoot   = content.SquareRoot
)

// NewCatalog builds a catalog of numItems items whose query popularity
// follows a Zipf law with the given exponent (alpha=0 is uniform).
func NewCatalog(numItems int, alpha float64) (*Catalog, error) {
	return content.NewCatalog(numItems, alpha)
}

// Replicate places item replicas on n nodes under the given strategy with
// a total budget of copies.
func Replicate(c *Catalog, n, budget int, s ReplicationStrategy, rng *RNG) (*Placement, error) {
	return content.Replicate(c, n, budget, s, rng)
}

// ExpectedSearchSize resolves popularity-distributed queries by random
// walk and reports the mean probe count (Cohen & Shenker's ESS objective).
func ExpectedSearchSize(g *Graph, p *Placement, c *Catalog, queries, maxSteps int, rng *RNG) (ESSResult, error) {
	return content.ExpectedSearchSize(g.Freeze(), p, c, queries, maxSteps, rng)
}

// FloodQuerySuccess resolves popularity-distributed queries by TTL-bounded
// flooding and reports success rate and message cost.
func FloodQuerySuccess(g *Graph, p *Placement, c *Catalog, queries, ttl int, rng *RNG) (FloodQueryResult, error) {
	return content.FloodSuccess(g.Freeze(), p, c, queries, ttl, rng)
}

// Churn simulation: the paper's §VI future work (join/leave dynamics with
// topology maintenance) as a deterministic graph-level laboratory. The
// live message-passing counterpart is the p2p Overlay runtime.
type (
	// ChurnConfig parameterizes a churn simulation.
	ChurnConfig = churn.Config
	// ChurnSimulator evolves one overlay under arrivals and departures.
	ChurnSimulator = churn.Simulator
	// ChurnSnapshot is one periodic overlay-health measurement.
	ChurnSnapshot = churn.Snapshot
	// ChurnJoinRule selects the attachment rule for arrivals.
	ChurnJoinRule = churn.JoinRule
	// ChurnRepairPolicy selects the post-departure repair policy.
	ChurnRepairPolicy = churn.RepairPolicy
)

// Churn join rules and repair policies.
const (
	ChurnJoinPreferential = churn.JoinPreferential
	ChurnJoinUniform      = churn.JoinUniform
	ChurnNoRepair         = churn.NoRepair
	ChurnReconnectRepair  = churn.ReconnectRepair
)

// NewChurnSimulator builds a starting PA overlay and wraps it in a churn
// simulator.
func NewChurnSimulator(cfg ChurnConfig, rng *RNG) (*ChurnSimulator, error) {
	return churn.New(cfg, rng)
}

// Behavior makes a live peer uncooperative (lying about degree, refusing
// inbound links, freeriding on relay, or leeching); the zero value is a
// fully cooperative peer. Assign per-peer behaviors in an Overlay with
// OverlayConfig.BehaviorFor.
type Behavior = p2p.Behavior

// RichClubPoint is the rich-club coefficient at one degree threshold.
type RichClubPoint = metrics.RichClubPoint

// RichClub computes the rich-club coefficient phi(k): the edge density
// among nodes of degree > k. Hard cutoffs flatten the hub clubs that
// HAPA's star-like cores otherwise form.
func RichClub(g *Graph) []RichClubPoint { return metrics.RichClub(g.Freeze()) }

// EffectiveDiameter estimates the q-quantile (typically 0.9) of pairwise
// distances from BFS over `sources` random sources — the robust companion
// to Table I's diameter regimes.
func EffectiveDiameter(g *Graph, q float64, sources int, rng *RNG) (int, error) {
	return metrics.EffectiveDiameter(g.Freeze(), q, sources, rng)
}

// PercolationPoint is one sample of the site-percolation curve.
type PercolationPoint = metrics.PercolationPoint

// SitePercolation measures giant-component survival when nodes are kept
// independently with probability p — the random-failure half of §III's
// robust-yet-fragile argument.
func SitePercolation(g *Graph, steps, trials int, rng *RNG) ([]PercolationPoint, error) {
	return metrics.SitePercolation(g, steps, trials, rng)
}

// PercolationThreshold estimates where the giant component first reaches
// the given fraction of the original network.
func PercolationThreshold(pts []PercolationPoint, frac float64) float64 {
	return metrics.PercolationThreshold(pts, frac)
}
