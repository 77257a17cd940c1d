//! `trans_stage_file` and `trans_stage_crc`: the full tile schedule
//! of `trans` replayed with an empty body against real files.
//!
//! Chosen because `ooc-runtime`'s layout, array and store layers do
//! all the work and the interpreter none. This is where the paper's
//! ordering becomes measurable in real seconds: `col` stages the same
//! bytes in hundreds of times more, smaller calls than `c-opt`, so a
//! gain for large runs that costs small ones shows in `base_run_s`
//! against `run_s`.
//!
//! `trans_stage_crc` replays over
//! `TracingStore<ChecksummedStore<FileStore, FileStore>>`: every write
//! also reads, updates and writes a sidecar. A raw-path shortcut that
//! bypasses or slows the wrappers shows there and not in
//! `trans_stage_file`, and the reverse.
//!
//! Their traced runs carry the store ladder (see `README.md`).

use crate::inputs::{init_value, Rng};
use crate::replay::{
    build_arrays, dump_arrays, enumerate_runs, replay, seed_arrays, total_stats, NullStore,
};
use crate::stats::median;
use crate::workload::{passes_within, Ctx, Layers, Rep, Variant, Workload};
use ooc_core::{
    extract_schedule, run_functional_on, simulate, ExecConfig, FunctionalConfig, TiledProgram,
};
use ooc_ir::ArrayId;
use ooc_kernels::{compile, kernel_by_name, Kernel, Version};
use ooc_runtime::{
    ChecksummedStore, FaultConfig, FaultStore, FileStore, IoNodePool, IoStats, MemStore, OocArray,
    ProfilingStore, SharedStore, Store, StripeConfig, StripedStore, TracingStore,
};
use ooc_sched::TileSchedule;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;

type CrcStore = ChecksummedStore<FileStore, FileStore>;

/// The arrays a repetition replays against.
enum Arrays {
    File(Vec<OocArray<FileStore>>),
    Crc(Vec<OocArray<TracingStore<CrcStore>>>),
}

/// One compiled version with its files.
struct Plan {
    label: &'static str,
    tiled: TiledProgram,
    schedule: TileSchedule,
    dir: PathBuf,
    /// Raw bytes of each data file right after seeding.
    seeded: Vec<Vec<u8>>,
    /// `IoStats` of the last repetition: what every rung of the ladder
    /// must reproduce over the same schedule.
    stats: IoStats,
}

impl Plan {
    fn data_path(&self, a: usize) -> PathBuf {
        self.dir.join(format!("{a}.dat"))
    }

    fn sidecar_path(&self, a: usize) -> PathBuf {
        self.dir.join(format!("{a}.crc"))
    }

    fn open_file(&self, a: usize) -> io::Result<FileStore> {
        FileStore::open(&self.data_path(a))
    }

    fn open_crc(&self, a: usize, chunk: u64) -> io::Result<CrcStore> {
        ChecksummedStore::attach(
            self.open_file(a)?,
            FileStore::open(&self.sidecar_path(a))?,
            chunk,
        )
    }

    /// Whether the data files still hold the seeded contents, bit
    /// for bit.
    fn files_intact(&self) -> io::Result<bool> {
        for (a, want) in self.seeded.iter().enumerate() {
            if std::fs::read(self.data_path(a))? != *want {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// State of the workload after set-up.
pub struct TransStage {
    crc: bool,
    kernel: Kernel,
    params: Vec<i64>,
    cfg: FunctionalConfig,
    /// `[headline, base]`.
    plans: [Plan; 2],
    arrays: [Arrays; 2],
    /// Whether the replay matched `run_functional_on` at the check
    /// size for both variants.
    replay_ok: bool,
}

/// A plan for `version` of `trans` at `params`, files under `dir`.
fn plan(
    ctx: &Ctx,
    kernel: &Kernel,
    version: Version,
    label: &'static str,
    params: &[i64],
    cfg: &FunctionalConfig,
    dir: PathBuf,
) -> Plan {
    let tiled = ctx.rec.time("compile", || compile(kernel, version).tiled).0;
    let schedule = ctx
        .rec
        .time("extract_schedule", || extract_schedule(&tiled, params, cfg))
        .0;
    Plan {
        label,
        tiled,
        schedule,
        dir,
        seeded: Vec::new(),
        stats: IoStats::default(),
    }
}

/// Creates `plan`'s data files (and sidecars), seeds them through the
/// plan's layouts and keeps their raw bytes.
fn create_and_seed(ctx: &Ctx, plan: &mut Plan, params: &[i64], crc: bool) -> io::Result<Arrays> {
    let seed = ctx.seed;
    let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
    std::fs::create_dir_all(&plan.dir)?;
    let chunk = ctx.sizes.crc_chunk_elems;
    let mut arrays = ctx
        .rec
        .time("create_stores", || {
            if crc {
                build_arrays(&plan.tiled, params, |a, _, len| {
                    let data = FileStore::create(&plan.data_path(a), len)?;
                    let sidecar = FileStore::create(
                        &plan.sidecar_path(a),
                        CrcStore::sidecar_len(len, chunk),
                    )?;
                    let mut store = ChecksummedStore::attach(data, sidecar, chunk)?;
                    store.rebuild()?;
                    Ok(TracingStore::new(store))
                })
                .map(Arrays::Crc)
            } else {
                build_arrays(&plan.tiled, params, |a, _, len| {
                    FileStore::create(&plan.data_path(a), len)
                })
                .map(Arrays::File)
            }
        })
        .0?;
    ctx.rec
        .time("seed", || match &mut arrays {
            Arrays::File(arrs) => seed_arrays(arrs, &init),
            Arrays::Crc(arrs) => seed_arrays(arrs, &init),
        })
        .0?;
    plan.seeded = (0..plan.tiled.program.arrays.len())
        .map(|a| std::fs::read(plan.data_path(a)))
        .collect::<io::Result<_>>()?;
    Ok(arrays)
}

/// The replay against the executor, at the check size over
/// `MemStore`: same `IoStats`, and the data untouched.
fn replay_matches_executor(
    ctx: &Ctx,
    tiled: &TiledProgram,
    cfg: &FunctionalConfig,
) -> io::Result<bool> {
    let params = vec![ctx.sizes.stage_check_n];
    let seed = ctx.seed;
    let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
    let run = run_functional_on(tiled, &params, &init, cfg, |_, _, len| {
        Ok(MemStore::new(len))
    })?;
    let schedule = extract_schedule(tiled, &params, cfg);
    let mut arrays = build_arrays(tiled, &params, |_, _, len| Ok(MemStore::new(len)))?;
    seed_arrays(&mut arrays, &init)?;
    let before = dump_arrays(&mut arrays)?;
    for arr in &mut arrays {
        arr.reset_stats();
    }
    replay(&schedule, &mut arrays)?;
    let stats = total_stats(&arrays);
    let after = dump_arrays(&mut arrays)?;
    Ok(stats == run.total_stats() && crate::inputs::bits_equal(&before, &after))
}

/// Compiles both variants, extracts their schedules, creates and
/// seeds their files, and checks the replay against the executor.
///
/// # Errors
/// Propagates filesystem errors.
pub fn setup(ctx: &Ctx, crc: bool) -> io::Result<TransStage> {
    let kernel = kernel_by_name("trans").expect("trans is a kernel");
    let params = vec![ctx.sizes.stage_n];
    let cfg = FunctionalConfig::with_fraction(ctx.sizes.memory_fraction);
    let root = ctx.tmp.join(if crc { "stage_crc" } else { "stage_file" });
    let mut plans = [
        plan(
            ctx,
            &kernel,
            Version::COpt,
            "copt",
            &params,
            &cfg,
            root.join("copt"),
        ),
        plan(
            ctx,
            &kernel,
            Version::Col,
            "col",
            &params,
            &cfg,
            root.join("col"),
        ),
    ];
    let [head, base] = &mut plans;
    let arrays = [
        create_and_seed(ctx, head, &params, crc)?,
        create_and_seed(ctx, base, &params, crc)?,
    ];
    let replay_ok = ctx
        .rec
        .time("reference", || {
            io::Result::Ok(
                replay_matches_executor(ctx, &plans[0].tiled, &cfg)?
                    && replay_matches_executor(ctx, &plans[1].tiled, &cfg)?,
            )
        })
        .0?;
    Ok(TransStage {
        crc,
        kernel,
        params,
        cfg,
        plans,
        arrays,
        replay_ok,
    })
}

impl Workload for TransStage {
    fn rep(&mut self, ctx: &Ctx, variant: Variant) -> io::Result<Rep> {
        let v = usize::from(variant == Variant::Base);
        let plan = &mut self.plans[v];
        let mut ok = self.replay_ok;
        let mut counts = Vec::new();
        let (stats, seconds) = match &mut self.arrays[v] {
            Arrays::File(arrs) => {
                arrs.iter_mut().for_each(OocArray::reset_all_metrics);
                let (r, s) = ctx.rec.time("replay", || replay(&plan.schedule, arrs));
                r?;
                (total_stats(arrs), s)
            }
            Arrays::Crc(arrs) => {
                arrs.iter_mut().for_each(OocArray::reset_all_metrics);
                let (r, s) = ctx.rec.time("replay", || replay(&plan.schedule, arrs));
                r?;
                let (mut verified, mut updates) = (0, 0);
                for arr in arrs.iter() {
                    let store = arr.store().inner();
                    verified += store.handle().verified_chunks();
                    updates += store.handle().chunk_updates();
                    ok &= store.verify().is_ok();
                }
                counts.push(("checksum.verified_chunks", verified));
                counts.push(("checksum.chunk_updates", updates));
                (total_stats(arrs), s)
            }
        };
        ok &= plan.files_intact()?;
        plan.stats = stats;
        counts.push(("io_calls", stats.total_calls()));
        counts.push(("io_elems", stats.total_elems()));
        counts.push(("tile_reads", stats.reads));
        counts.push(("tile_writes", stats.writes));
        Ok(Rep {
            seconds,
            ok,
            counts,
            parts: Vec::new(),
        })
    }

    fn peel(&mut self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        if self.crc {
            self.ladder(
                ctx,
                budget_s,
                layers,
                &["file", "file_crc", "striped4_mem", "parity4_mem"],
            )
        } else {
            self.ladder(
                ctx,
                budget_s * 0.7,
                layers,
                &[
                    "null",
                    "mem",
                    "file",
                    "file_traced",
                    "file_profiled",
                    "file_fault0",
                    "file_shared",
                ],
            )?;
            self.layout_runs(ctx, layers);
            self.versions_and_model(ctx, budget_s * 0.3, layers)
        }
    }
}

impl TransStage {
    /// Replays both variants over one store stack. Returns, per
    /// variant, the replay's seconds and whether the stack left what
    /// was staged unchanged. Stores that start empty stay zero-filled:
    /// the replay moves the same bytes whatever they hold.
    fn rung<S: Store>(
        &self,
        ctx: &Ctx,
        name: &str,
        make: impl Fn(&Plan, usize, u64) -> io::Result<S>,
        mut inspect: impl FnMut(&Plan, &[OocArray<S>]),
    ) -> io::Result<[(f64, bool); 2]> {
        let mut out = [(0.0, false); 2];
        for (plan, out) in self.plans.iter().zip(&mut out) {
            let mut arrays =
                build_arrays(&plan.tiled, &self.params, |a, _, len| make(plan, a, len))?;
            let (r, s) = ctx.rec.time(&format!("ladder.{name}.{}", plan.label), || {
                replay(&plan.schedule, &mut arrays)
            });
            r?;
            inspect(plan, &arrays);
            *out = (s, total_stats(&arrays) == plan.stats);
        }
        Ok(out)
    }

    /// The store ladder over this workload's schedule and files.
    fn ladder(
        &self,
        ctx: &Ctx,
        budget_s: f64,
        layers: &mut Layers,
        rungs: &[&'static str],
    ) -> io::Result<()> {
        let chunk = ctx.sizes.crc_chunk_elems;
        let nodes = StripeConfig::with_nodes(ctx.sizes.par_nodes);
        let no_faults = FaultConfig::transient(ctx.seed, 0);
        let mut samples: BTreeMap<(&'static str, usize), Vec<f64>> = BTreeMap::new();
        let (mut sidecar_calls, mut verified, mut write_amp) = (0u64, 0u64, 0.0f64);
        passes_within(budget_s, 5, || {
            for &name in rungs {
                let timed = match name {
                    "null" => self.rung(ctx, name, |_, _, len| Ok(NullStore::new(len)), |_, _| {}),
                    "mem" => self.rung(ctx, name, |_, _, len| Ok(MemStore::new(len)), |_, _| {}),
                    "file" => self.rung(ctx, name, |p, a, _| p.open_file(a), |_, _| {}),
                    "file_traced" => self.rung(
                        ctx,
                        name,
                        |p, a, _| p.open_file(a).map(TracingStore::new),
                        |_, _| {},
                    ),
                    "file_profiled" => self.rung(
                        ctx,
                        name,
                        |p, a, _| p.open_file(a).map(ProfilingStore::new),
                        |_, _| {},
                    ),
                    "file_fault0" => self.rung(
                        ctx,
                        name,
                        |p, a, _| Ok(FaultStore::new(p.open_file(a)?, no_faults)),
                        |_, _| {},
                    ),
                    "file_shared" => self.rung(
                        ctx,
                        name,
                        |p, a, _| p.open_file(a).map(SharedStore::new),
                        |_, _| {},
                    ),
                    "file_crc" => self.rung(
                        ctx,
                        name,
                        |p, a, _| p.open_crc(a, chunk),
                        |plan, arrays| {
                            if plan.label == "copt" {
                                let handles = arrays.iter().map(|a| a.store().handle());
                                sidecar_calls = handles.clone().map(|h| h.sidecar_io().0).sum();
                                verified = handles.map(|h| h.verified_chunks()).sum();
                            }
                        },
                    ),
                    "striped4_mem" => {
                        let pool = IoNodePool::new(nodes);
                        self.rung(
                            ctx,
                            name,
                            |_, _, len| {
                                StripedStore::build(&pool, len, |_, n| Ok(MemStore::new(n)))
                            },
                            |_, _| {},
                        )
                    }
                    "parity4_mem" => {
                        // c-opt replays first on the fresh pool, so its
                        // counters are read before col adds to them.
                        let pool = IoNodePool::new(nodes);
                        self.rung(
                            ctx,
                            name,
                            |_, _, len| {
                                StripedStore::build_with_parity(
                                    &pool,
                                    len,
                                    |_, n| Ok(MemStore::new(n)),
                                    |_, n| Ok(MemStore::new(n)),
                                )
                            },
                            |plan, _| {
                                if plan.label == "copt" {
                                    let data = pool.total_io().write_elems;
                                    let repair: u64 = pool
                                        .total_repair()
                                        .by_cause
                                        .values()
                                        .map(|c| c.write_elems)
                                        .sum();
                                    write_amp = (data + repair) as f64 / data.max(1) as f64;
                                }
                            },
                        )
                    }
                    other => unreachable!("unknown rung {other}"),
                }?;
                for (v, (secs, same_io)) in timed.into_iter().enumerate() {
                    layers.op(same_io);
                    samples.entry((name, v)).or_default().push(secs);
                }
            }
            Ok(())
        })?;
        // The file rungs wrote through to the workload's own files.
        for plan in &self.plans {
            layers.op(plan.files_intact()?);
        }

        let [copt, col] = &self.plans;
        let call_gap = col.stats.total_calls() as f64 - copt.stats.total_calls() as f64;
        for &name in rungs {
            let copt_s = median(&samples[&(name, 0)]);
            let col_s = median(&samples[&(name, 1)]);
            // Both variants stage the same elements, so their time
            // difference is the cost of col's extra calls; what is
            // left of c-opt's time is per-element cost.
            let per_call = if call_gap > 0.0 {
                (col_s - copt_s) / call_gap
            } else {
                0.0
            };
            let per_elem = (copt_s - per_call * copt.stats.total_calls() as f64)
                / copt.stats.total_elems().max(1) as f64;
            layers.set(&format!("ladder.{name}.col_s"), col_s);
            layers.set(&format!("ladder.{name}.copt_s"), copt_s);
            layers.set(&format!("ladder.{name}.ns_per_elem"), per_elem * 1e9);
            layers.set(&format!("ladder.{name}.us_per_call"), per_call * 1e6);
        }
        if rungs.contains(&"file_crc") {
            layers.set("checksum.sidecar_calls", sidecar_calls as f64);
            layers.set("checksum.verified_chunks", verified as f64);
        }
        if rungs.contains(&"parity4_mem") {
            layers.set("parity.write_amp", write_amp);
        }
        Ok(())
    }

    /// `FileLayout::region_runs` alone over each variant's schedule.
    fn layout_runs(&self, ctx: &Ctx, layers: &mut Layers) {
        for plan in &self.plans {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let (runs, s) = ctx
                        .rec
                        .time(&format!("layout.region_runs.{}", plan.label), || {
                            enumerate_runs(&plan.schedule, &plan.tiled, &self.params)
                        });
                    black_box(runs);
                    s * 1e3
                })
                .collect();
            layers.set(
                &format!("layout.region_runs_ms.{}", plan.label),
                median(&samples),
            );
        }
    }

    /// All six versions staged over real files — the Table 2 ordering
    /// in measured seconds — beside what `pfs-sim` predicts for the
    /// same plans.
    fn versions_and_model(&self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        let versions_dir = ctx.tmp.join("stage_versions");
        let mut order = Version::ALL.to_vec();
        Rng::new(ctx.seed).shuffle(&mut order);
        let mut staged = Vec::new();
        for version in order {
            let mut p = plan(
                ctx,
                &self.kernel,
                version,
                version.label(),
                &self.params,
                &self.cfg,
                versions_dir.join(version.label()),
            );
            let arrays = create_and_seed(ctx, &mut p, &self.params, false)?;
            let Arrays::File(arrays) = arrays else {
                unreachable!("created without checksums")
            };
            staged.push((version, p, arrays));
        }
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        passes_within(budget_s, 5, || {
            for (version, p, arrays) in &mut staged {
                let (r, s) = ctx
                    .rec
                    .time(&format!("stage.version.{}", version.label()), || {
                        replay(&p.schedule, arrays)
                    });
                r?;
                layers.op(p.files_intact()?);
                samples.entry(version.label()).or_default().push(s);
            }
            Ok(())
        })?;

        let mut measured = BTreeMap::new();
        let mut predicted = BTreeMap::new();
        for (version, p, _) in &staged {
            let label = version.label();
            let secs = median(&samples[label]);
            layers.set(&format!("stage.version_s.{label}"), secs);
            measured.insert(label, secs);
            let mut cfg = ExecConfig::new(self.params.clone(), 1);
            cfg.memory_fraction = self.cfg.memory_fraction;
            let report = ctx
                .rec
                .time(&format!("model.simulate.{label}"), || {
                    simulate(&p.tiled, &cfg)
                })
                .0;
            predicted.insert(label, report.result.io_blocked_time);
        }
        for (label, key) in [("col", "col"), ("c-opt", "copt")] {
            layers.set(&format!("model.pred_s.{key}"), predicted[label]);
            layers.set(
                &format!("model.gap_ratio.{key}"),
                measured[label] / predicted[label].max(f64::MIN_POSITIVE),
            );
        }
        // The model ties versions it cannot tell apart (trans: col =
        // row = l-opt); only pairs it separates by more than 5 % can
        // agree or disagree with the measurement.
        let agrees = predicted.iter().all(|(a, pa)| {
            predicted
                .iter()
                .all(|(b, pb)| *pa >= pb * 0.95 || measured[a] < measured[b])
        });
        layers.set("model.order_agrees", f64::from(u8::from(agrees)));
        Ok(())
    }
}
