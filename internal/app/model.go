// Package app models the parallel applications of the paper's evaluation:
// the NAS Parallel Benchmark FT kernel and the GADGET-2 n-body simulator,
// both made malleable with DYNACO (§VI-A), plus rigid and moldable job
// classes from the Feitelson–Rudolph classification (§II-A).
//
// The central object is the RuntimeModel: the execution time T(p) of the
// whole application on p processors, digitised from the paper's Fig. 6. The
// malleable executor integrates 1/T(p) over the allocation history, so a job
// that runs at varying sizes finishes exactly when its accumulated progress
// reaches 1.
package app

import (
	"fmt"
	"sort"
)

// RuntimeModel yields the wall-clock execution time of a complete run at a
// constant processor count.
type RuntimeModel interface {
	// Time returns T(p) in seconds for p ≥ 1 processors.
	Time(p int) float64
	// Name identifies the model in reports.
	Name() string
}

// TablePoint is one digitised (processors, seconds) sample of a measured
// scaling curve.
type TablePoint struct {
	Procs int
	Time  float64
}

// TableModel interpolates a measured execution-time curve linearly between
// sample points and clamps outside the sampled range. This is how the
// paper's own Fig. 6 curves enter the simulation.
type TableModel struct {
	name   string
	points []TablePoint
}

// NewTableModel builds a model from at least one sample point. Points are
// sorted by processor count; duplicate processor counts panic.
func NewTableModel(name string, points []TablePoint) *TableModel {
	if len(points) == 0 {
		panic("app: table model needs at least one point")
	}
	ps := append([]TablePoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Procs < ps[j].Procs })
	for i := 1; i < len(ps); i++ {
		if ps[i].Procs == ps[i-1].Procs {
			panic(fmt.Sprintf("app: duplicate table point at p=%d", ps[i].Procs))
		}
	}
	for _, p := range ps {
		if p.Procs < 1 || p.Time <= 0 {
			panic(fmt.Sprintf("app: invalid table point %+v", p))
		}
	}
	return &TableModel{name: name, points: ps}
}

// Name implements RuntimeModel.
func (m *TableModel) Name() string { return m.name }

// Time implements RuntimeModel by piecewise-linear interpolation.
func (m *TableModel) Time(p int) float64 {
	if p < 1 {
		panic(fmt.Sprintf("app: Time(%d) with p < 1", p))
	}
	pts := m.points
	if p <= pts[0].Procs {
		return pts[0].Time
	}
	if p >= pts[len(pts)-1].Procs {
		return pts[len(pts)-1].Time
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Procs >= p })
	lo, hi := pts[i-1], pts[i]
	frac := float64(p-lo.Procs) / float64(hi.Procs-lo.Procs)
	return lo.Time + frac*(hi.Time-lo.Time)
}

// FTModel returns the NPB FT scaling curve digitised from Fig. 6: about two
// minutes on 2 processors, best about one minute, slightly degrading beyond
// the optimum. FT only runs on powers of two; intermediate values are
// irrelevant in practice but interpolate smoothly.
func FTModel() *TableModel {
	return NewTableModel("NPB-FT", []TablePoint{
		{1, 220}, {2, 120}, {4, 85}, {8, 68}, {16, 60}, {32, 62}, {64, 70},
	})
}

// GadgetModel returns the GADGET-2 scaling curve digitised from Fig. 6:
// about ten minutes on 2 processors, best about four minutes near the upper
// end of its size range.
func GadgetModel() *TableModel {
	return NewTableModel("GADGET-2", []TablePoint{
		{1, 1100}, {2, 600}, {4, 430}, {8, 330}, {16, 280},
		{24, 260}, {32, 248}, {40, 243}, {46, 240},
	})
}
