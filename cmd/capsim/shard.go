// Static shards: distribute the experiment grid across worker processes,
// on one machine or many, with the persistent study cache (-study-cache) as
// the only channel between them:
//
//	capsim -shard 0/2 -study-cache DIR -experiment all   # worker, any host
//	capsim -shard 1/2 -study-cache DIR -experiment all   # worker, any host
//	capsim -study-cache DIR -experiment all              # merge: renders
//
// A worker computes and publishes only the study rows bucket i of N owns.
// Its stdout stays empty — the render would be full of stubs. The merge is
// a plain run over the shared cache: every published row hits, and stdout is
// byte-identical to a single-process run. The merge is self-healing: rows a
// crashed worker never published are recomputed by the merge run itself.
package main

import (
	"fmt"
	"os"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/sweep"
)

// shardWorkerMode runs ids as one static shard: only owned study rows are
// computed (and published to the study cache); renders are discarded.
// parseArgs has already checked the spec and that -study-cache is set.
func shardWorkerMode(sh sweep.Shard, ids []string, cfg experiments.Config) error {
	if err := sweep.SetShard(sh); err != nil {
		return err
	}
	defer sweep.ClearShard()
	t0 := time.Now()
	for _, id := range ids {
		if _, err := experiments.Run(id, cfg); err != nil {
			return fmt.Errorf("shard %s: %s: %w", sh, id, err)
		}
	}
	fmt.Fprintf(os.Stderr, "capsim: shard %s published %d experiments' rows to %s in %.1fs\n",
		sh, len(ids), experiments.StudyCacheDir(), time.Since(t0).Seconds())
	return nil
}
