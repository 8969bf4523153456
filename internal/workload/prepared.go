package workload

import (
	"fmt"

	"repro/internal/app"
)

// PreparedSpec is the immutable, share-once half of workload generation:
// everything about a Spec that does not depend on the seed — validation,
// the rendered job ID strings, and one profile per item class. One
// PreparedSpec serves every replication of a sweep point; Generate only
// draws the per-seed random choices, so batched replications skip the
// fmt.Sprintf per job, and submitting an item allocates nothing and looks
// up no profile.
//
// A PreparedSpec is read-only after PrepareSpec returns and safe for
// concurrent use by parallel replication workers.
type PreparedSpec struct {
	spec Spec
	ids  []string

	// One read-only profile per item class, indexed by AppKind: every
	// item of a class, in every replication, shares it.
	malleable, rigid [2]*app.Profile
}

// PrepareSpec validates spec and precomputes its seed-independent parts.
// The spec's Seed field is ignored; pass the seed to Generate.
func PrepareSpec(spec Spec) (*PreparedSpec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &PreparedSpec{spec: spec, ids: make([]string, spec.Jobs)}
	for i := range p.ids {
		p.ids[i] = fmt.Sprintf("%s-%03d", spec.Name, i)
	}
	for _, kind := range []AppKind{FT, Gadget} {
		p.malleable[kind] = classProfile(kind, true, spec.InitialSize)
		p.rigid[kind] = classProfile(kind, false, spec.RigidSize)
	}
	return p, nil
}

// Generate produces the workload for the given seed — byte-identical to
// Generate(spec with that Seed) — reusing the prepared ID strings and
// profiles. The returned Workload is freshly allocated and owned by the
// caller; only the immutable parts are shared.
func (p *PreparedSpec) Generate(seed uint64) *Workload {
	spec := p.spec
	spec.Seed = seed
	w := generate(spec, p)
	return w
}
