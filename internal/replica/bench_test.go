package replica_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
)

// BenchmarkClusterRead measures aggregate read throughput against a lone
// primary versus a primary plus two synced read replicas, parallel clients
// spread round-robin across the fleet. Every clearance × belief mode is in
// the mix, so each node serves from its own per-clearance prepared
// reductions and result cache.
//
// On a multi-core host the nodes=3 arm shows the read fan-out replication
// buys; on a single-CPU runner the arms land near parity, and the number
// that matters is that a replica read costs no more than a primary read —
// mirrored application must not tax the serving path. EXPERIMENTS.md
// ("Replica reads") records a -benchtime 2000x run.
func BenchmarkClusterRead(b *testing.B) {
	cfg := workload.ProgramConfig{Levels: 3, Facts: 60, Rules: 6, Preds: 2, Seed: 1, Poly: 0.3}
	prog := workload.ProgramSource(cfg)
	modes := []string{"fir", "opt", "cau"}

	for _, fleet := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", fleet), func(b *testing.B) {
			p := startPrimary(b, prog, nil)
			targets := []*server.Client{p.cl}
			if fleet == 3 {
				f1 := startFollower(b, p.url)
				f2 := startFollower(b, p.url)
				waitApplied(b, p, f1, f2)
				targets = append(targets, f1.cl, f2.cl)
			}

			ctx := context.Background()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) - 1
				c := targets[i%len(targets)]
				clearance := string(workload.Level(i % cfg.Levels))
				sess, err := c.Open(ctx, server.OpenRequest{
					Subject:   fmt.Sprintf("bench%d", i),
					Clearance: clearance,
					Mode:      modes[i%len(modes)],
					DB:        "test",
				})
				if err != nil {
					b.Error(err)
					return
				}
				query := fmt.Sprintf("L[p%d(K: a -C-> V)]", i%cfg.Preds)
				for pb.Next() {
					if _, err := c.QueryContext(ctx, server.QueryRequest{
						Session: sess.Session, Query: query}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads-per-sec")
			}
		})
	}
}
