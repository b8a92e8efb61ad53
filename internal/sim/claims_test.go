package sim

import "testing"

func TestClaimsWellFormed(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %+v incompletely defined", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim ID %s", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 6 {
		t.Fatalf("only %d claims registered", len(seen))
	}
}

// TestCheckClaims runs every paper claim at findings scale and requires
// all of them to hold — the one-command verification behind
// `cmd/experiments -verify`. Claims marked as documented deviations must
// still run cleanly, but their Pass value is reported, not gated: the
// expected outcome is "not reproduced".
func TestCheckClaims(t *testing.T) {
	t.Parallel()
	results := checkClaimList(Claims(), findScale, 555)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: experiment error: %v", r.ID, r.Err)
			continue
		}
		if r.Deviation != "" {
			t.Logf("%s deviation (%s): %s", r.ID, r.Deviation, r.Detail)
			continue
		}
		if !r.Pass {
			t.Errorf("%s FAILED: %s [%s]", r.ID, r.Statement, r.Detail)
		} else {
			t.Logf("%s ok: %s", r.ID, r.Detail)
		}
	}
}

func TestExtensionClaimsWellFormed(t *testing.T) {
	t.Parallel()
	paper := map[string]bool{}
	for _, c := range Claims() {
		paper[c.ID] = true
	}
	ext := ExtensionClaims()
	if len(ext) != 4 {
		t.Fatalf("extension claims %d, want 4", len(ext))
	}
	for _, c := range ext {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Errorf("claim %q incompletely defined", c.ID)
		}
		if paper[c.ID] {
			t.Errorf("extension claim %q collides with a paper claim", c.ID)
		}
	}
	if got := len(AllClaims()); got != len(Claims())+len(ext) {
		t.Fatalf("AllClaims length %d", got)
	}
}

// TestCheckExtensionClaims requires every extension claim to hold at
// findings scale, mirroring TestCheckClaims for the paper claims.
func TestCheckExtensionClaims(t *testing.T) {
	t.Parallel()
	claims := ExtensionClaims()
	for i, c := range claims {
		c := c
		seed := 555 + uint64(i)*7717
		t.Run(c.ID, func(t *testing.T) {
			t.Parallel()
			pass, detail, err := c.Check(findScale, seed)
			if err != nil {
				t.Fatalf("experiment error: %v", err)
			}
			if !pass {
				t.Errorf("FAILED: %s [%s]", c.Statement, detail)
			} else {
				t.Logf("ok: %s", detail)
			}
		})
	}
}
