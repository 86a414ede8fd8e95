// Package clusterjobs registers the cluster jobs every squall worker binary
// must know (see squall.RegisterClusterJob): a cluster worker rebuilds its
// share of a run from a job name plus opaque parameters, so any binary that
// may serve as a worker — cmd/squalld, the enginetest test binary — imports
// this package and gets the identical plan construction the coordinator used.
package clusterjobs

import (
	"encoding/json"
	"fmt"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/enginetest"
	"squall/internal/types"
)

// WorkloadJob rebuilds a deterministic enginetest workload and one engine
// configuration over it. It backs the multi-process differential and the
// cluster chaos tests: the workload generator is seeded, so the
// coordinator and every worker derive identical relations from the params
// alone — no tuple data crosses the wire at setup.
const WorkloadJob = "enginetest-workload"

// WorkloadParams parameterizes WorkloadJob.
type WorkloadParams struct {
	// RandomWorkload arguments.
	Seed       int64 `json:"seed"`
	NumRels    int   `json:"num_rels"`
	RowsPerRel int   `json:"rows_per_rel"`
	KeyDomain  int   `json:"key_domain"`
	WithTheta  bool  `json:"with_theta,omitempty"`
	// Zipf builds enginetest.ZipfWorkload instead (WithTheta is ignored).
	Zipf bool `json:"zipf,omitempty"`
	// TrickleRows > 0 paces each relation's first TrickleRows rows by
	// sleeping TrickleEveryUS microseconds per row. The tuples themselves
	// are unchanged, so results stay bag-identical to the untrickled run —
	// this only guarantees the run lasts long enough for chaos tests and
	// benches to kill a worker mid-flight deterministically.
	TrickleRows    int   `json:"trickle_rows,omitempty"`
	TrickleEveryUS int64 `json:"trickle_every_us,omitempty"`
	// The engine configuration to run over it.
	Config enginetest.EngineConfig `json:"config"`
}

// Build rebuilds the workload's query and options — the coordinator uses
// this directly so its plan and the workers' are the same code path.
func (p WorkloadParams) Build() (*squall.JoinQuery, squall.Options, error) {
	if p.NumRels < 2 || p.RowsPerRel <= 0 || p.KeyDomain <= 0 {
		return nil, squall.Options{}, fmt.Errorf("clusterjobs: degenerate workload params %+v", p)
	}
	w := enginetest.RandomWorkload(p.Seed, p.NumRels, p.RowsPerRel, p.KeyDomain, p.WithTheta)
	if p.Zipf {
		w = enginetest.ZipfWorkload(p.Seed, p.NumRels, p.RowsPerRel, p.KeyDomain)
	}
	q, opts := w.Plan(p.Config)
	if p.TrickleRows > 0 && p.TrickleEveryUS > 0 {
		delay := time.Duration(p.TrickleEveryUS) * time.Microsecond
		limit := p.TrickleRows
		for rel := range q.Sources {
			rows := w.Rels[rel]
			q.Sources[rel].Spout = dataflow.GenSpout(len(rows), func(i int) types.Tuple {
				if i < limit {
					time.Sleep(delay)
				}
				return rows[i]
			})
		}
	}
	return q, opts, nil
}

func init() {
	squall.RegisterClusterJob(WorkloadJob, func(params []byte) (*squall.JoinQuery, squall.Options, error) {
		var p WorkloadParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, squall.Options{}, fmt.Errorf("clusterjobs: decoding workload params: %w", err)
		}
		return p.Build()
	})
}
