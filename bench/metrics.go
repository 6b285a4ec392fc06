package main

import "fmt"

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units and directions; TestNoDrift holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share
}

// value is a reported number with how many samples stand behind it (0 for
// counts and ratios, which are not sampled).
type value struct {
	v float64
	n int
}

// endToEnd is what a user of the daemon sees, restated at the reference
// speed (reference.go): a time as it would have read had the reference
// request taken refNominalMS, whatever the sandbox's speed was during the
// run. The clocks' own readings are per layer, as clock.*. Read latency on
// the workloads whose reads queue behind writes is the exception: it is
// as the clocks read here too. Write latency is not here:
// the builder's contract wants every end-to-end metric on every workload
// and never 0, and two workloads never write; it is reported per layer as
// client.write_*_ms, and on the write workloads ops_per_s, which ten ops
// per write make a function of write latency, carries the bound for it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
}

func endToEndValues(u *untraced) map[string]value {
	return map[string]value{
		"setup_s":     {u.setupS, 0},
		"ops_per_s":   {u.opsPerS, u.attempted},
		"read_p50_ms": {u.readP50, u.nRead},
		"read_p95_ms": {u.readP95, u.nRead},
	}
}

// steadySpans are reported over the traced steady ops as count, busy_ms
// and p50_us; setupSpans run only while a clearance is first prepared and
// are reported over the traced part of set-up as busy_ms.
var (
	steadySpans = []string{
		"server.client_roundtrip", "server.handler", "server.json_codec", "admission.admit_done",
		"multilog.parse_goals", "multilog.parse_clauses", "multilog.match", "multilog.query_deps",
		"multilog.clone", "multilog.reduce", "multilog.advance", "multilog.impact", "lint.multilog",
		"datalog.prepare_interp", "wal.append",
	}
	setupSpans = []string{"server.open_session", "multilog.reduce", "compile.plan", "compile.prepare"}
)

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range steadySpans {
		defs = append(defs,
			metricDef{name: s + ".count", unit: "count", better: "lower"},
			metricDef{name: s + ".busy_ms", unit: "ms", better: "lower"},
			metricDef{name: s + ".p50_us", unit: "us", better: "lower"})
	}
	for _, s := range setupSpans {
		defs = append(defs, metricDef{name: "setup." + s + ".busy_ms", unit: "ms", better: "lower"})
	}
	return append(defs,
		// From the untraced window: the end-to-end timings as the clocks read,
		// the reference requests they were restated by, what else the two
		// clients saw, and the child.
		metricDef{name: "clock.setup_s", unit: "s", better: "lower"},
		metricDef{name: "clock.ops_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "clock.read_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "clock.read_p95_ms", unit: "ms", better: "lower"},
		metricDef{name: "reference.roundtrip_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "reference.service_p50_us", unit: "us", better: "lower"},
		metricDef{name: "reference.samples", unit: "count", better: "higher"},
		metricDef{name: "client.write_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "client.write_p90_ms", unit: "ms", better: "lower"},
		metricDef{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "wal.checkpoints", unit: "count", better: "lower"},
		metricDef{name: "multilogd.cpu_ms_per_op", unit: "ms", better: "lower"},
		metricDef{name: "multilogd.peak_rss_mb", unit: "MB", better: "lower"},
		// From the traced run's server counters: exact counts.
		metricDef{name: "server.cache_evictions", unit: "count", better: "lower"},
		metricDef{name: "server.cache_invalidations", unit: "count", better: "lower"},
		metricDef{name: "admission.admitted", unit: "count", better: "lower"},
		metricDef{name: "admission.shed", unit: "count", better: "lower"},
		metricDef{name: "compile.plan_hits", unit: "count", better: "higher"},
		metricDef{name: "compile.plan_misses", unit: "count", better: "lower"},
		metricDef{name: "compile.compile_ms", unit: "ms", better: "lower"},
		metricDef{name: "multilog.advance_incremental_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "multilog.match_steps_per_answer", unit: "count", better: "lower"},
		metricDef{name: "wal.appends", unit: "count", better: "lower"},
		metricDef{name: "wal.syncs", unit: "count", better: "lower"},
		metricDef{name: "wal.bytes_per_write", unit: "B", better: "lower"},
		// Reconciliation of the two runs.
		metricDef{name: "trace.residual_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	)
}()

func perLayerValues(u *untraced, t *traced) map[string]value {
	vals := map[string]value{}
	for _, s := range steadySpans {
		st := t.steady[s]
		vals[s+".count"] = value{float64(st.count), 0}
		vals[s+".busy_ms"] = value{st.busyMS, st.count}
		vals[s+".p50_us"] = value{st.p50US, st.count}
	}
	for _, s := range setupSpans {
		st := t.setup[s]
		vals["setup."+s+".busy_ms"] = value{st.busyMS, st.count}
	}
	for name, v := range map[string]float64{
		"server.cache_hit_ratio":             u.hitRatio,
		"wal.checkpoints":                    float64(u.checkpoints),
		"multilogd.cpu_ms_per_op":            u.cpuMSPerOp,
		"multilogd.peak_rss_mb":              u.peakRSSMB,
		"server.cache_evictions":             float64(t.evictions),
		"server.cache_invalidations":         float64(t.invalidations),
		"admission.admitted":                 float64(t.admitted),
		"admission.shed":                     float64(t.shed),
		"compile.plan_hits":                  float64(t.planHits),
		"compile.plan_misses":                float64(t.planMisses),
		"compile.compile_ms":                 t.compileMS,
		"multilog.advance_incremental_ratio": t.incrementalRatio,
		"multilog.match_steps_per_answer":    t.stepsPerAnswer,
		"wal.appends":                        float64(t.walAppends),
		"wal.syncs":                          float64(t.walSyncs),
		"wal.bytes_per_write":                t.walBytesPerWrite,
		"trace.residual_ratio":               t.residualRatio,
		"trace.overhead_ratio":               t.overheadRatio,
	} {
		vals[name] = value{v, 0}
	}
	vals["clock.setup_s"] = value{u.clock.setupS, 0}
	vals["clock.ops_per_s"] = value{u.clock.opsPerS, u.attempted}
	vals["clock.read_p50_ms"] = value{u.clock.readP50, u.nRead}
	vals["clock.read_p95_ms"] = value{u.clock.readP95, u.nRead}
	vals["reference.roundtrip_p50_ms"] = value{u.refRoundtripP50MS, u.refSamples}
	vals["reference.service_p50_us"] = value{u.refServiceP50US, u.refSamples}
	vals["reference.samples"] = value{float64(u.refSamples), 0}
	vals["client.write_p50_ms"] = value{u.writeP50, u.nWrite}
	vals["client.write_p90_ms"] = value{u.writeP90, u.nWrite}
	return vals
}

// printMetrics writes every metric of defs by name, with unit and, where
// the number is a sample statistic, its sample count.
func printMetrics(defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		v := vals[d.name]
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("  n=%d", v.n)
		}
		fmt.Printf("  %-40s %14.4f %-5s%s\n", d.name, v.v, d.unit, n)
	}
}
