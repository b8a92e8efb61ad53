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
//
// # Quick start
//
//	rng := scalefree.NewRNG(42)
//	f, _, err := scalefree.GeneratePA(scalefree.PAConfig{N: 10000, M: 2, KC: 40}, rng)
//	if err != nil { ... }
//	res, err := scalefree.Flood(f, 0, 8)
//	fmt.Println(res.Hits) // nodes discovered per TTL
//
// Every generator and ReadEdgeList return a *FrozenTopology, the
// read-only snapshot every search, metric, distribution and writer takes:
// build a topology once and hand it to as many reads as needed.
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
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// FrozenTopology is a compressed-sparse-row (CSR) snapshot of a finished
// topology: what every generator returns, and the read-only form every
// search, structural metric, degree statistic and writer in this package
// takes, with the one implementation of BFS, components, path statistics,
// cores and induced subgraphs. Neighbor order is the order the generator
// wired the edges in, so every RNG-driven read is reproducible from the
// seed. WriteEdgeList and WriteDOT write it out.
type FrozenTopology = graph.Frozen

// ReadEdgeList parses the edge-list format written by
// FrozenTopology.WriteEdgeList.
func ReadEdgeList(r io.Reader) (*FrozenTopology, error) { return graph.ReadEdgeList(r) }

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
)

// GeneratePA builds a preferential-attachment topology (Appendix A).
func GeneratePA(cfg PAConfig, rng *RNG) (*FrozenTopology, GenStats, error) {
	return frozenWithStats(gen.PA(cfg, rng))
}

// GenerateCM builds a configuration-model topology with a power-law degree
// sequence (Appendix B).
// The snapshot's neighbor array keeps the capacity of the multigraph
// before cleanup, one entry per stub, so it holds the memory of the
// entries the cleanup deleted: about 16% of the array at Gamma 2.2 with
// no cutoff (N = 100 000, M = 2), 1.5% at Gamma 2.5, and none to speak
// of with a cutoff of 40.
// The build is seeded with one Uint64 drawn from rng (0 when rng is nil),
// so a given rng seed draws a different realization than the
// single-stream build of earlier releases did; the model is unchanged.
func GenerateCM(cfg CMConfig, rng *RNG) (*FrozenTopology, GenStats, error) {
	return gen.CMFrozen(cfg, buildFrom(rng))
}

// GenerateHAPA builds a Hop-and-Attempt topology (Appendix C).
func GenerateHAPA(cfg HAPAConfig, rng *RNG) (*FrozenTopology, GenStats, error) {
	return frozenWithStats(gen.HAPA(cfg, rng))
}

// GenerateDAPA grows a Discover-and-Attempt overlay on the given substrate
// (Appendix D) and returns the overlay's snapshot, its nodes numbered in
// join order; an overlay that stalls short of its target comes back with
// the peers that joined and an error wrapping gen.ErrStalled. Build a
// substrate first with GenerateGRN or GenerateMesh.
// The build is seeded with one Uint64 drawn from rng (0 when rng is nil),
// so a given rng seed draws a different realization than the
// single-stream build of earlier releases did; the model is unchanged.
func GenerateDAPA(substrate *FrozenTopology, cfg DAPAConfig, rng *RNG) (*FrozenTopology, GenStats, error) {
	ov, st, err := gen.DAPABuild(substrate, cfg, buildFrom(rng))
	if ov == nil {
		return nil, st, err
	}
	return ov.G.Freeze(), st, err
}

// GenerateGRN builds a geometric random network substrate and returns node
// coordinates alongside the topology.
// The build is seeded with one Uint64 drawn from rng (0 when rng is nil),
// so a given rng seed draws a different realization than the
// single-stream build of earlier releases did; the model is unchanged.
func GenerateGRN(cfg GRNConfig, rng *RNG) (*FrozenTopology, []gen.Point, error) {
	return gen.GRNFrozen(cfg, buildFrom(rng))
}

// buildFrom is the serial build behind GenerateCM, GenerateGRN and
// GenerateDAPA, seeded with one draw from rng (0 when rng is nil).
func buildFrom(rng *RNG) gen.Build {
	var seed uint64
	if rng != nil {
		seed = rng.Uint64()
	}
	return gen.NewBuild(xrand.Phases{Seed: seed}, 1)
}

// GenerateMesh builds a width×height 2-D grid substrate.
func GenerateMesh(width, height int) (*FrozenTopology, error) { return frozen(gen.Mesh(width, height)) }

// GenerateER builds an Erdős–Rényi G(n, M) baseline.
func GenerateER(n, edges int, rng *RNG) (*FrozenTopology, error) {
	return frozen(gen.ER(n, edges, rng))
}

// GenerateWattsStrogatz builds a small-world baseline.
func GenerateWattsStrogatz(n, k int, beta float64, rng *RNG) (*FrozenTopology, error) {
	return frozen(gen.WattsStrogatz(n, k, beta, rng))
}

// frozen snapshots a generator's finished graph once, passing its error
// through; frozenWithStats does the same for a generator reporting Stats.
func frozen(g *graph.Graph, err error) (*FrozenTopology, error) {
	if err != nil {
		return nil, err
	}
	return g.Freeze(), nil
}

func frozenWithStats(g *graph.Graph, st GenStats, err error) (*FrozenTopology, GenStats, error) {
	f, err := frozen(g, err)
	return f, st, err
}

// SearchResult is the per-TTL outcome (hits, messages) of one search.
type SearchResult = search.Result

// Flood runs flooding search (FL, §V-A1) from src up to maxTTL hops.
func Flood(f *FrozenTopology, src, maxTTL int) (SearchResult, error) {
	var s search.Scratch
	return s.Flood(f, src, maxTTL)
}

// NormalizedFlood runs NF search (§V-A2) with fan-out kMin.
func NormalizedFlood(f *FrozenTopology, src, maxTTL, kMin int, rng *RNG) (SearchResult, error) {
	var s search.Scratch
	return s.NormalizedFlood(f, src, maxTTL, kMin, rng)
}

// RandomWalkWithNFBudget runs RW normalized to NF's message budget, the
// paper's fair-comparison protocol (§V-B).
func RandomWalkWithNFBudget(f *FrozenTopology, src, maxTTL, kMin int, rng *RNG) (rw, nf SearchResult, err error) {
	var s search.Scratch
	return s.RandomWalkWithNFBudget(f, src, maxTTL, kMin, rng)
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
func GlobalClustering(f *FrozenTopology) float64 { return metrics.GlobalClustering(f) }

// DegreeAssortativity returns Newman's degree-correlation coefficient r.
func DegreeAssortativity(f *FrozenTopology) (float64, error) { return metrics.DegreeAssortativity(f) }

// Robustness measures giant-component survival under progressive node
// removal (random failures or targeted hub attacks). It removes nodes from
// a private copy of f's rows; f is only read.
func Robustness(f *FrozenTopology, strategy RemovalStrategy, stepFrac, maxFrac float64, rng *RNG) ([]RobustnessPoint, error) {
	return metrics.Robustness(f, strategy, stepFrac, maxFrac, rng)
}

// Degree-distribution analysis.
type (
	// DegreeDist is a normalized degree distribution P(k).
	DegreeDist = stats.DegreeDist
	// PowerLawFit is a fitted degree exponent with its standard error.
	PowerLawFit = stats.PowerLawFit
)

// DegreeDistribution computes P(k) for a topology.
func DegreeDistribution(f *FrozenTopology) DegreeDist {
	return stats.NewDegreeDist(f.DegreeHistogram())
}

// FitDegreeExponent fits P(k) ~ k^-gamma on logarithmically binned data
// for degrees in [kMin, kMax] (kMax <= 0 unbounded), the paper's fitting
// procedure.
func FitDegreeExponent(d DegreeDist, kMin, kMax int) (PowerLawFit, error) {
	return stats.FitPowerLawBinned(d, 1.5, kMin, kMax)
}

// DegreeGini returns the Gini coefficient of the topology's degree
// sequence — the load-fairness measure behind the paper's motivation for
// hard cutoffs.
func DegreeGini(f *FrozenTopology) float64 { return stats.Gini(f.DegreeSequence()) }

// TopLoadShare returns the fraction of all links held by the top `frac`
// share of peers (e.g. 0.01 for the top 1%).
func TopLoadShare(f *FrozenTopology, frac float64) float64 {
	return stats.TopShare(f.DegreeSequence(), frac)
}

// NaturalCutoff returns the Dorogovtsev et al. natural degree cutoff
// m·N^(1/(γ-1)) (paper Eq. 4), the scale hard cutoffs are compared
// against.
func NaturalCutoff(n, m int, gamma float64) float64 {
	return stats.NaturalCutoffDorogovtsev(n, m, gamma)
}

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
func ExpectedSearchSize(f *FrozenTopology, p *Placement, c *Catalog, queries, maxSteps int, rng *RNG) (ESSResult, error) {
	return content.ExpectedSearchSize(f, p, c, queries, maxSteps, rng)
}

// FloodQuerySuccess resolves popularity-distributed queries by TTL-bounded
// flooding and reports success rate and message cost.
func FloodQuerySuccess(f *FrozenTopology, p *Placement, c *Catalog, queries, ttl int, rng *RNG) (FloodQueryResult, error) {
	return content.FloodSuccess(f, p, c, queries, ttl, rng)
}

// Churn simulation: the paper's §VI future work (join/leave dynamics with
// topology maintenance) as a deterministic graph-level laboratory.
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
	ChurnNoRepair         = churn.NoRepair
	ChurnReconnectRepair  = churn.ReconnectRepair
)

// NewChurnSimulator builds a starting PA overlay and wraps it in a churn
// simulator.
func NewChurnSimulator(cfg ChurnConfig, rng *RNG) (*ChurnSimulator, error) {
	return churn.New(cfg, rng)
}

// RichClubPoint is the rich-club coefficient at one degree threshold.
type RichClubPoint = metrics.RichClubPoint

// RichClub computes the rich-club coefficient phi(k): the edge density
// among nodes of degree > k. Hard cutoffs flatten the hub clubs that
// HAPA's star-like cores otherwise form.
func RichClub(f *FrozenTopology) []RichClubPoint { return metrics.RichClub(f) }

// EffectiveDiameter estimates the q-quantile (typically 0.9) of pairwise
// distances from BFS over `sources` random sources — the robust companion
// to Table I's diameter regimes.
func EffectiveDiameter(f *FrozenTopology, q float64, sources int, rng *RNG) (int, error) {
	return metrics.EffectiveDiameter(f, q, sources, rng)
}

// PercolationPoint is one sample of the site-percolation curve.
type PercolationPoint = metrics.PercolationPoint

// SitePercolation measures giant-component survival when nodes are kept
// independently with probability p — the random-failure half of §III's
// robust-yet-fragile argument.
func SitePercolation(f *FrozenTopology, steps, trials int, rng *RNG) ([]PercolationPoint, error) {
	return metrics.SitePercolation(f, steps, trials, rng)
}

// PercolationThreshold estimates where the giant component first reaches
// the given fraction of the original network.
func PercolationThreshold(pts []PercolationPoint, frac float64) float64 {
	return metrics.PercolationThreshold(pts, frac)
}
