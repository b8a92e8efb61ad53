package search

// Delivery-time measurement for locating a specific target, which backs
// the scaling laws the paper quotes: T_N = log(N) for flooding (Eq. 6,
// Scratch.FloodDelivery) and T_N ~ N^0.79 for random walks on γ≈2.1
// scale-free networks (Eq. 7, from Adamic et al.). The walker takes the
// CSR *graph.Frozen and hops through the shared Walk loop, so each hop is
// a flat-array neighbor pick with no per-hop bounds validation.

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// Delivery is the outcome of a targeted search.
type Delivery struct {
	// Found reports whether the target was reached within the budget.
	Found bool
	// Time is the delivery time: hops for flooding (the shortest-path
	// length, §V-A1), steps for random walks.
	Time int
	// Messages is the total transmissions used up to delivery.
	Messages int
}

// RandomWalkDelivery measures a single walker's delivery time to a target:
// the number of steps until first arrival (Eq. 7 predicts scaling ~N^0.79
// on γ≈2.1 networks), bounded by maxSteps. A walk that misses the target,
// or is stuck at an isolated src, reports {false, maxSteps, maxSteps}.
func RandomWalkDelivery(f *graph.Frozen, src, target, maxSteps int, rng *xrand.RNG) (Delivery, error) {
	if err := validate(f, src, maxSteps); err != nil {
		return Delivery{}, err
	}
	if target < 0 || target >= f.N() {
		return Delivery{}, fmt.Errorf("%w: target %d", ErrBadSource, target)
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	if target == src {
		return Delivery{Found: true}, nil
	}
	for t, v := range Walk(f, src, maxSteps, rng) {
		if v == target {
			return Delivery{Found: true, Time: t, Messages: t}, nil
		}
	}
	return Delivery{Found: false, Time: maxSteps, Messages: maxSteps}, nil
}
