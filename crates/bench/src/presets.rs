//! Sweep presets: the four comparison matrices as presets of one [`Grid`]
//! with the flags they share ([`MatrixArgs`]), and the simulator's paper
//! figures ([`Figure`]), whose channel/rank twins share a [`Geometry`].

use crate::{
    axis_from_args, kernel_from_args, list, list_requested, maybe_print_telemetry,
    periodic_schemes_ablated, preventive_schemes, preventive_schemes_geometry, print_series,
    write_bench, AxisValues, CacheSpec, Grid, ObsSpec, ProbeSpec, Scale, SweepRun, Task, WsTable,
};
use hira_core::config::HiraConfig;
use hira_engine::{flabel, Executor, Handle, RunRecord, ScenarioKey, Sweep};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::device::DeviceHandle;
use hira_sim::plugin::PluginHandle;
use hira_sim::policy::{self, PolicyHandle};
use hira_workload::WorkloadHandle;

/// One of the four comparison matrices. Each is a preset of one grid: a
/// sweep name, default axes, an axis order (which fixes the scenario keys,
/// point seeds and cache hashes) and a task. The binary of the same name
/// prints its tables; [`MatrixArgs::defaults`] regenerates the committed
/// `BENCH_<name>.json` baseline without reading any flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// Every registered refresh policy × chip capacity (8, 64 Gb) × the
    /// mix suite: `policy`, `cap`, (`plugin`), `mix`.
    Policy,
    /// Workload × refresh policy at 8 Gb: `wl`, `policy`, (`plugin`).
    Workload,
    /// Device × policy × workload with the channel metrics (`ws+stats`):
    /// `dev`, `policy`, `wl`, (`plugin`).
    Device,
    /// RowHammer defense × policy × device × workload, plus derived
    /// `ws_vs_none` records: `plugin`, `policy`, `dev`, `wl`.
    Rh,
}

impl Matrix {
    /// The sweep name (also the binary and `BENCH_<name>.json` name).
    pub fn name(self) -> &'static str {
        match self {
            Matrix::Policy => "policy_matrix",
            Matrix::Workload => "workload_matrix",
            Matrix::Device => "device_matrix",
            Matrix::Rh => "rh_matrix",
        }
    }

    /// The preset's axes in key order — which fixes its scenario keys,
    /// point seeds and cache hashes — each with its default names,
    /// space-separated. No policy names means the full registry; no plugin
    /// names makes the plugin axis opt-in. The policy preset's `cap` axis
    /// is 8 and 64 Gb.
    fn axes(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Matrix::Policy => &[("policy", ""), ("cap", ""), ("plugin", ""), ("mix", "")],
            // One representative point per family: two roster benchmarks
            // and a mix, the pattern generators, and the embedded trace.
            Matrix::Workload => &[
                (
                    "wl",
                    "mix0 mcf libquantum stream random chase hotspot zipf80 rw50 open25 demo-trace",
                ),
                ("policy", ""),
                ("plugin", ""),
            ],
            // The HiRA-capable presets plus a pinned 32 Gb part; one
            // arrangement per refresh family; a mix, a streaming, a random
            // and a write-heavy generator (keeps `write_lat` live).
            Matrix::Device => &[
                ("dev", "ddr4-2400 ddr4-3200 lpddr4-3200 ddr4-2400@32"),
                ("policy", "noref baseline refpb hira4"),
                ("wl", "mix0 stream random rw50"),
                ("plugin", ""),
            ],
            // The undefended baseline plus one working point per shipped
            // defense, with thresholds far below the paper's tRH = 1024 so
            // benign traffic exercises the injection paths (oracle fires on
            // victim exposure, graphene on aggressor count — roughly half
            // of it); one refresh arrangement per family; two parts with
            // different geometries and refresh timings; and the row-reuse
            // heavy `hotspot` generator.
            Matrix::Rh => &[
                ("plugin", "none oracle:4 para:0.05 graphene:2:64"),
                ("policy", "baseline refpb hira4"),
                ("dev", "ddr4-2400 lpddr4-3200"),
                ("wl", "hotspot"),
            ],
        }
    }

    /// The `--list` output: the registries this preset's flags draw from,
    /// in axis order, then the probe forms and kernel modes.
    pub fn list(self) -> String {
        list(self.axes().iter().map(|(axis, _)| *axis), true)
    }
}

/// The flags the four matrix binaries share, parsed once:
///
/// * axes — `--policy=`, `--workload=`, `--device=` and `--plugin=`
///   (`<name>[,<name>...]`, repeatable) subset the preset's axes by
///   registry name or dynamic form, each resolved through
///   [`hira_engine::Registry::axis`]; `--list` prints every accepted name
///   and form. A matrix reads only the flags of the axes it has;
///   on `policy_matrix`, `workload_matrix` and `device_matrix` a
///   `--plugin=` flag adds the plugin axis, whose cells the printed tables
///   average over;
/// * `--kernel=dense|event` — the simulation kernel (default `event`;
///   results are bit-identical, `dense` is the reference escape hatch);
/// * `--probe=<form>` / `--cmdtrace=<prefix>` / `--stats-epoch=<cycles>` —
///   attach observers to every point (see [`ProbeSpec`]), `--telemetry` —
///   print the per-point run telemetry table;
/// * `--cache=<dir>` / `--no-cache` / `--cache-stats` — the sweep cache
///   (see [`CacheSpec`]);
/// * `--trace[=<path>]` / `--metrics[=<path>]` / `--progress` /
///   `--log-level=<level>` — observability (see [`ObsSpec`]);
/// * `--list` — print the registries the axes draw from, the probe forms
///   and the kernel modes, then exit;
/// * `--check-determinism` — re-run the sweep single-threaded and uncached
///   and assert the canonical result sets are byte-identical.
#[derive(Debug, Clone)]
pub struct MatrixArgs {
    matrix: Matrix,
    /// Mixes, instructions per core and warmup.
    pub scale: Scale,
    /// The `policy` axis.
    pub policies: AxisValues<PolicyHandle>,
    /// The `wl` axis (empty: the preset has none).
    pub workloads: AxisValues<WorkloadHandle>,
    /// The `dev` axis (empty: the preset has none).
    pub devices: AxisValues<DeviceHandle>,
    /// The `cap` axis in Gb (empty: the preset has none).
    pub caps: Vec<f64>,
    /// The `plugin` axis (empty: no plugin axis).
    pub plugins: AxisValues<PluginHandle>,
    kernel: KernelMode,
    probes: ProbeSpec,
    run: SweepRun,
    check_determinism: bool,
}

impl MatrixArgs {
    /// The preset at its default axes and `scale`, on
    /// [`Executor::from_env`], with no flag read: no probes, no cache, no
    /// observation — what the committed baselines are made from.
    pub fn defaults(matrix: Matrix, scale: Scale) -> Self {
        Self::resolve(matrix, scale, false)
    }

    /// Parses the process arguments for `matrix` (see the type docs). With
    /// `--list`, prints the registries and exits.
    ///
    /// # Panics
    ///
    /// Panics (with the accepted names) on an unknown axis name, and on
    /// malformed cache, probe, kernel or observability flags.
    pub fn from_args(matrix: Matrix) -> Self {
        if list_requested() {
            print!("{}", matrix.list());
            std::process::exit(0);
        }
        let mut args = Self::resolve(matrix, Scale::from_env(), true);
        args.kernel = kernel_from_args();
        args.probes = ProbeSpec::from_args();
        args.check_determinism = std::env::args().any(|a| a == "--check-determinism");
        args.run = args
            .run
            .probes(args.probes.clone())
            .cache(CacheSpec::from_args())
            .obs(ObsSpec::from_args());
        args
    }

    fn resolve(matrix: Matrix, scale: Scale, cli: bool) -> Self {
        // A preset reads the flags of the axes it has, and only those.
        fn axis<H: Handle>(matrix: Matrix, key: &str, cli: bool) -> AxisValues<H> {
            match matrix.axes().iter().find(|(a, _)| *a == key) {
                Some((_, defaults)) => axis_from_args(cli, defaults),
                None => Vec::new(),
            }
        }
        let task = if matrix == Matrix::Device {
            Task::WsStats
        } else {
            Task::Ws
        };
        MatrixArgs {
            matrix,
            scale,
            policies: axis(matrix, "policy", cli),
            workloads: axis(matrix, "wl", cli),
            devices: axis(matrix, "dev", cli),
            caps: if matrix == Matrix::Policy {
                vec![8.0, 64.0]
            } else {
                Vec::new()
            },
            plugins: axis(matrix, "plugin", cli),
            kernel: KernelMode::default(),
            probes: ProbeSpec::default(),
            run: SweepRun::new(Executor::from_env(), scale).task(task),
            check_determinism: false,
        }
    }

    /// The preset's grid over the selected axes, in the preset's key order.
    fn grid(&self) -> Grid {
        let grid = Grid::new(self.matrix.name());
        self.matrix
            .axes()
            .iter()
            .fold(grid, |g, (axis, _)| match *axis {
                "policy" => g.policies(&self.policies),
                "wl" => g.workloads(&self.workloads),
                "dev" => g.devices(&self.devices),
                "cap" => g.caps(&self.caps),
                "plugin" => g.plugins(&self.plugins),
                _ => g.mixes(self.scale.mixes),
            })
    }

    /// Builds the grid (printing each skipped combination once), runs it,
    /// re-runs it serially under `--check-determinism`, and adds the
    /// preset's derived records.
    ///
    /// # Panics
    ///
    /// Panics when a cell fails to build for any reason but a skip, when
    /// every cell was skipped, and when the determinism check fails.
    pub fn run(&self) -> WsTable {
        let name = self.matrix.name();
        let build = || {
            self.grid()
                .build(self.scale, self.kernel)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (sweep, skipped) = build();
        let mut said: Vec<&str> = Vec::new();
        for (_, reason) in &skipped {
            if !said.contains(&reason.as_str()) {
                println!("skipping {reason}");
                said.push(reason);
            }
        }
        let mut t = self.run.ws(sweep);
        if self.check_determinism {
            // Deliberately uncached: re-simulating also proves any cache
            // replays above were bit-identical to fresh simulation.
            let serial = self.run.serial().ws(build().0);
            assert_eq!(
                t.run.canonical_json(),
                serial.run.canonical_json(),
                "{name} results must be independent of HIRA_THREADS"
            );
            println!("determinism check: canonical result sets byte-identical at 1 thread");
        }
        if self.matrix == Matrix::Rh {
            push_overhead_records(&mut t);
        }
        t
    }

    /// Prints the `plugins:` header line (label padded to `width`) and the
    /// note that `what` — rows or cells — average over the plugin axis,
    /// when a `--plugin=` flag added one.
    pub fn print_plugins(&self, width: usize, what: &str) {
        if !self.plugins.is_empty() {
            println!("{:<width$}{}", "plugins:", labels(&self.plugins).join(", "));
            println!("(weighted-speedup {what} below average over the plugin axis)");
        }
    }

    /// Closes a matrix binary: the `--telemetry` table, the attached
    /// probes, and `BENCH_<name>.json` (into `HIRA_BENCH_DIR`, or the
    /// working directory when unset).
    pub fn finish(&self, t: &WsTable) {
        maybe_print_telemetry(&t.run);
        if self.probes.is_active() {
            println!("\nprobes attached: {}", self.probes.specs().join(", "));
        }
        write_bench(&t.run);
    }
}

/// The labels of an axis, in axis order.
pub fn labels<T>(axis: &[(String, T)]) -> Vec<&str> {
    axis.iter().map(|(n, _)| n.as_str()).collect()
}

/// Appends `rh_matrix`'s derived `ws_vs_none` records: every defended
/// cell's `ws` divided by the undefended `none` cell of the same (policy,
/// device, workload). Cells whose `none` counterpart is absent are left
/// out.
fn push_overhead_records(t: &mut WsTable) {
    let none = |key: &ScenarioKey| key.get("plugin") == Some("none");
    let mut derived = Vec::new();
    for r in &t.run.records {
        if r.metric != "ws" || none(&r.key) || r.key.get("plugin").is_none() {
            continue;
        }
        let same_cell = |other: &ScenarioKey| {
            ["policy", "dev", "wl"]
                .iter()
                .all(|axis| r.key.get(axis) == other.get(axis))
        };
        let baseline = t
            .run
            .records
            .iter()
            .find(|b| b.metric == "ws" && none(&b.key) && same_cell(&b.key));
        if let Some(b) = baseline {
            derived.push(RunRecord {
                key: r.key.clone(),
                metric: "ws_vs_none".to_owned(),
                value: r.value / b.value,
                wall_ms: 0.0,
                telemetry: None,
            });
        }
    }
    t.run.records.extend(derived);
}

/// The channel or rank axis of Figs. 13–16: 1, 2, 4 and 8 per system,
/// the other dimension held at one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// Channels, one rank each (`ch` axis; Figs. 13 and 15).
    Channels,
    /// Ranks on one channel's shared command bus (`rk` axis; Figs. 14 and
    /// 16).
    Ranks,
}

impl Geometry {
    const COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// The axis key and its printed label.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Geometry::Channels => ("ch", "channels"),
            Geometry::Ranks => ("rk", "ranks/channel"),
        }
    }

    /// The paper figure that sweeps this axis with PARA off or on: its
    /// number, its sweep name and what the paper reports.
    fn figure(self, para: bool) -> (u32, &'static str, &'static str) {
        match (self, para) {
            (Geometry::Channels, false) => (
                13,
                "fig13_channels_periodic",
                "(paper: performance rises with channels; HiRA > Baseline at every channel count)",
            ),
            (Geometry::Ranks, false) => (
                14,
                "fig14_ranks_periodic",
                "(paper: 1->2 ranks helps; beyond 2 the shared command bus erodes gains; HiRA stays ahead)",
            ),
            (Geometry::Channels, true) => (
                15,
                "fig15_channels_para",
                "(paper: more channels help; HiRA beats PARA at every channel count and gap widens at low NRH)",
            ),
            (Geometry::Ranks, true) => (
                16,
                "fig16_ranks_para",
                "(paper: HiRA-2/4 improve over PARA by 30.5 %/42.9 % even at 8 ranks, NRH=64)",
            ),
        }
    }

    /// Crosses `sweep` with this axis.
    fn axis(self, sweep: Sweep<SystemConfig>) -> Sweep<SystemConfig> {
        let counts = Self::COUNTS.map(|n| (n.to_string(), n));
        let (key, _) = self.names();
        sweep.axis(key, counts, move |cfg, &n| match self {
            Geometry::Channels => cfg.clone().with_geometry(n, 1),
            Geometry::Ranks => cfg.clone().with_geometry(1, n),
        })
    }

    /// One normalized series per scheme over the axis: `ws(filters +
    /// scheme + count) / base`.
    fn print(self, t: &WsTable, filters: &[(&str, &str)], schemes: &[&str], base: f64) {
        let (key, _) = self.names();
        for name in schemes {
            let ws: Vec<f64> = Self::COUNTS
                .iter()
                .map(|n| {
                    let n = n.to_string();
                    let mut cell = filters.to_vec();
                    cell.extend([("scheme", *name), (key, n.as_str())]);
                    t.mean(&cell) / base
                })
                .collect();
            print_series(name, &ws);
        }
        println!();
    }
}

/// A paper figure the simulator reproduces, as a preset: its sweep, its
/// printed tables and its `BENCH_<name>.json`. The binary of the same
/// name runs [`Figure::main`]; `tests/bench_baselines.rs` regenerates the
/// committed baseline through [`Figure::run`] without printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 9: periodic refresh over chip capacity, 2–128 Gb: `scheme`,
    /// `cap`, `mix`. `no_refresh_access` turns refresh-access pairing off
    /// on every HiRA point (the binary's `--no-refresh-access` ablation).
    Periodic {
        /// Disable refresh-access pairing on the HiRA points.
        no_refresh_access: bool,
    },
    /// Fig. 12: PARA with and without HiRA over the RowHammer threshold:
    /// `nrh`, `scheme`, `mix`, plus one `no-defense` point.
    Para,
    /// Figs. 13/14: periodic refresh over the channel or rank count at 2,
    /// 8 and 32 Gb: `cap`, `scheme`, `ch`/`rk`, `mix`.
    GeometryPeriodic(Geometry),
    /// Figs. 15/16: PARA with and without HiRA over the channel or rank
    /// count: `nrh`, `scheme`, `ch`/`rk`, `mix`, plus one `no-defense`
    /// point.
    GeometryPara(Geometry),
    /// The HiRA-4 mechanism ablation at 64 Gb: `scheme`, `mix`.
    Ablation,
}

impl Figure {
    /// The sweep name (also the binary and `BENCH_<name>.json` name).
    pub fn name(self) -> &'static str {
        match self {
            Figure::Periodic { .. } => "fig09_periodic",
            Figure::Para => "fig12_para",
            Figure::GeometryPeriodic(geometry) => geometry.figure(false).1,
            Figure::GeometryPara(geometry) => geometry.figure(true).1,
            Figure::Ablation => "ablation_mechanisms",
        }
    }

    /// The figure's sweep, before the `mix` axis.
    fn sweep(self) -> Sweep<SystemConfig> {
        let name = self.name();
        match self {
            Figure::Periodic { no_refresh_access } => {
                let mut schemes = vec![("NoRefresh", policy::noref())];
                schemes.extend(periodic_schemes_ablated(no_refresh_access));
                Sweep::new(name)
                    .axis("scheme", schemes, |_, s| s.clone())
                    .axis("cap", FIG09_CAPS.map(|c| (flabel(c), c)), |s, c| {
                        SystemConfig::table3(*c, s.clone())
                    })
            }
            Figure::Para => para_sweep(name, &FIG12_NRHS, preventive_schemes, |s| s),
            Figure::GeometryPeriodic(geometry) => {
                let sweep = Sweep::new(name)
                    .axis("cap", GEOMETRY_CAPS.map(|c| (flabel(c), c)), |_, c| *c)
                    .axis("scheme", geometry_schemes(), |&c, s| {
                        SystemConfig::table3(c, s.clone())
                    });
                geometry.axis(sweep)
            }
            Figure::GeometryPara(geometry) => {
                para_sweep(name, &GEOMETRY_NRHS, preventive_schemes_geometry, |s| {
                    geometry.axis(s)
                })
            }
            Figure::Ablation => Sweep::new(name).axis("scheme", ablation_schemes(), |_, s| {
                SystemConfig::table3(ABLATION_CAP, s.clone())
            }),
        }
    }

    /// Runs the figure's sweep over `run`'s mix suite.
    ///
    /// # Panics
    ///
    /// As [`SweepRun::ws_over_mixes`].
    pub fn run(self, run: &SweepRun) -> WsTable {
        run.ws_over_mixes(self.sweep())
    }

    /// Prints the figure's tables from `t`, a run of [`Figure::run`] at
    /// `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `t` lacks a cell the tables read.
    pub fn print(self, t: &WsTable, scale: Scale) {
        match self {
            Figure::Periodic { no_refresh_access } => print_fig09(t, scale, no_refresh_access),
            Figure::Para => print_fig12(t, scale),
            Figure::GeometryPeriodic(geometry) => {
                let (key, label) = geometry.names();
                let (fig, _, paper) = geometry.figure(false);
                for cap in GEOMETRY_CAPS {
                    let counts = Geometry::COUNTS;
                    println!(
                        "== Fig. {fig}: {cap} Gb chips, {label} {counts:?} (normalized to Baseline 1ch/1rk) =="
                    );
                    let cap = flabel(cap);
                    let base = t.mean(&[("cap", &cap), ("scheme", "Baseline"), (key, "1")]);
                    let names = geometry_schemes().map(|(n, _)| n);
                    geometry.print(t, &[("cap", &cap)], &names, base);
                }
                println!("{paper}");
            }
            Figure::GeometryPara(geometry) => {
                let base = t.mean(&[("scheme", "no-defense")]);
                let label = geometry.names().1;
                let (fig, _, paper) = geometry.figure(true);
                for nrh in GEOMETRY_NRHS {
                    let counts = Geometry::COUNTS;
                    println!(
                        "== Fig. {fig}: NRH = {nrh}, {label} {counts:?} (normalized to no-defense 1ch/1rk) =="
                    );
                    let nrh = nrh.to_string();
                    geometry.print(t, &[("nrh", &nrh)], &["PARA", "HiRA-2", "HiRA-4"], base);
                }
                println!("{paper}");
            }
            Figure::Ablation => {
                println!(
                    "== Ablation: HiRA-4 mechanisms at {ABLATION_CAP} Gb, {} mixes x {} insts ==",
                    scale.mixes, scale.insts
                );
                let ideal = t.mean(&[("scheme", "NoRefresh")]);
                println!("(weighted speedup normalized to the ideal No-Refresh system)");
                for (name, _) in ablation_schemes().iter().skip(1) {
                    print_series(name, &[t.mean(&[("scheme", name)]) / ideal]);
                }
            }
        }
    }

    /// The figure binary: runs the sweep at [`Scale::from_env`] on
    /// [`Executor::from_env`], prints the tables, and writes
    /// `BENCH_<name>.json` when `HIRA_BENCH_DIR` is set.
    pub fn main(self) {
        let scale = Scale::from_env();
        let t = self.run(&SweepRun::new(Executor::from_env(), scale));
        self.print(&t, scale);
        t.emit();
    }
}

/// Fig. 9's chip capacities, Gb.
const FIG09_CAPS: [f64; 7] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Fig. 12's RowHammer thresholds.
const FIG12_NRHS: [u32; 5] = [1024, 512, 256, 128, 64];
/// The chip capacities of Figs. 13/14, Gb.
const GEOMETRY_CAPS: [f64; 3] = [2.0, 8.0, 32.0];
/// The RowHammer thresholds of Figs. 15/16.
const GEOMETRY_NRHS: [u32; 3] = [1024, 256, 64];
/// The ablation's chip capacity, Gb.
const ABLATION_CAP: f64 = 64.0;

/// The periodic arrangements of Figs. 13/14.
fn geometry_schemes() -> [(&'static str, PolicyHandle); 3] {
    [
        ("Baseline", policy::baseline()),
        ("HiRA-2", policy::hira(2)),
        ("HiRA-4", policy::hira(4)),
    ]
}

/// The ablation's arrangements: the ideal bound first, then the printed
/// rows.
fn ablation_schemes() -> Vec<(&'static str, PolicyHandle)> {
    let hira4 = || HiraConfig::hira_n(4);
    vec![
        ("NoRefresh", policy::noref()),
        ("Baseline", policy::baseline()),
        ("HiRA-4 full", policy::hira(4)),
        (
            "no refresh-access",
            policy::hira_custom("hira4-noRA", hira4().without_refresh_access()),
        ),
        (
            "no refresh-refresh",
            policy::hira_custom("hira4-noRR", hira4().without_refresh_refresh()),
        ),
        (
            "singles only",
            policy::hira_custom(
                "hira4-singles",
                hira4().without_refresh_access().without_refresh_refresh(),
            ),
        ),
    ]
}

/// The PARA sweeps of Figs. 12, 15 and 16: `nrh`, then `scheme`, where
/// each scheme's `p_th` depends on the NRH point, then whatever `extend`
/// crosses in, plus one undefended `no-defense` point every series is
/// normalized to.
fn para_sweep(
    name: &str,
    nrhs: &[u32],
    schemes: fn(u32) -> Vec<(&'static str, PolicyHandle)>,
    extend: impl FnOnce(Sweep<SystemConfig>) -> Sweep<SystemConfig>,
) -> Sweep<SystemConfig> {
    let mut sweep = extend(
        Sweep::new(name)
            .axis("nrh", nrhs.iter().map(|n| (n.to_string(), *n)), |_, n| *n)
            .expand("scheme", move |_, &nrh| {
                schemes(nrh)
                    .into_iter()
                    .map(|(n, handle)| (n.to_string(), SystemConfig::table3(8.0, handle)))
                    .collect()
            }),
    );
    sweep.push(
        ScenarioKey::root().with("scheme", "no-defense"),
        SystemConfig::table3(8.0, policy::baseline()),
    );
    sweep
}

/// Fig. 9a and 9b: each periodic scheme over capacity, normalized to
/// No-Refresh and to Baseline.
fn print_fig09(t: &WsTable, scale: Scale, no_refresh_access: bool) {
    println!(
        "== Fig. 9: periodic refresh, capacities 2..128 Gb, {} mixes x {} insts ==",
        scale.mixes, scale.insts
    );
    println!("capacity (Gb): {FIG09_CAPS:?}");
    let series = |name: &str| -> Vec<f64> {
        FIG09_CAPS
            .iter()
            .map(|&c| t.mean(&[("scheme", name), ("cap", &flabel(c))]))
            .collect()
    };
    let ideal = series("NoRefresh");
    let base = series("Baseline");
    let names: Vec<&str> = periodic_schemes_ablated(no_refresh_access)
        .iter()
        .map(|(n, _)| *n)
        .collect();
    println!(
        "\n-- Fig. 9a: WS normalized to No-Refresh (paper: baseline drops to ~0.74 at 128 Gb) --"
    );
    for name in &names {
        let norm: Vec<f64> = series(name)
            .iter()
            .zip(&ideal)
            .map(|(w, i)| w / i)
            .collect();
        print_series(name, &norm);
    }
    println!("\n-- Fig. 9b: WS normalized to Baseline (paper: HiRA-2 reaches ~1.126 at 128 Gb) --");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().zip(&base).map(|(w, b)| w / b).collect();
        print_series(name, &norm);
    }
}

/// Fig. 12a and 12b: each PARA arrangement over NRH, normalized to the
/// no-defense point and to plain PARA.
fn print_fig12(t: &WsTable, scale: Scale) {
    println!(
        "== Fig. 12: PARA +- HiRA, NRH sweep {:?}, {} mixes x {} insts ==",
        FIG12_NRHS, scale.mixes, scale.insts
    );
    let base_ws = t.mean(&[("scheme", "no-defense")]);
    let series = |name: &str| -> Vec<f64> {
        FIG12_NRHS
            .iter()
            .map(|&n| t.mean(&[("nrh", &n.to_string()), ("scheme", name)]))
            .collect()
    };
    let names: Vec<&str> = preventive_schemes(FIG12_NRHS[0])
        .iter()
        .map(|(n, _)| *n)
        .collect();
    println!("\n-- Fig. 12a: WS normalized to no-defense baseline --");
    println!("(paper: PARA 0.71 at NRH=1024 down to 0.04 at NRH=64)");
    println!("NRH:         {FIG12_NRHS:?}");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().map(|w| w / base_ws).collect();
        print_series(name, &norm);
    }
    println!("\n-- Fig. 12b: WS normalized to plain PARA --");
    println!("(paper: HiRA-2 1.054x at NRH=1024, 2.75x at NRH=64; HiRA-4 3.73x at NRH=64)");
    let para = series("PARA");
    for name in &names {
        let norm: Vec<f64> = series(name).iter().zip(&para).map(|(w, p)| w / p).collect();
        print_series(name, &norm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every refresh-policy handle the repository selects, by name: the
    /// standard registry, every figure's sweep, the four matrix presets,
    /// and the PARA compositions and HiRA-N points the examples and tests
    /// build.
    fn repository_handles() -> BTreeMap<String, PolicyHandle> {
        let mut all = BTreeMap::new();
        let mut add = |h: &PolicyHandle| {
            all.entry(h.name().to_owned()).or_insert_with(|| h.clone());
        };
        hira_sim::PolicyRegistry::standard()
            .handles()
            .for_each(&mut add);
        for figure in [
            Figure::Periodic {
                no_refresh_access: false,
            },
            Figure::Periodic {
                no_refresh_access: true,
            },
            Figure::Para,
            Figure::GeometryPeriodic(Geometry::Channels),
            Figure::GeometryPeriodic(Geometry::Ranks),
            Figure::GeometryPara(Geometry::Channels),
            Figure::GeometryPara(Geometry::Ranks),
            Figure::Ablation,
        ] {
            figure
                .sweep()
                .points()
                .iter()
                .for_each(|(_, c)| add(&c.refresh));
        }
        for matrix in [Matrix::Policy, Matrix::Workload, Matrix::Device, Matrix::Rh] {
            let args = MatrixArgs::defaults(matrix, Scale::from_env());
            args.policies
                .iter()
                .filter_map(|(_, h)| h.as_ref())
                .for_each(&mut add);
        }
        for h in [
            policy::baseline().with_para_immediate(0.5),
            policy::baseline().with_para_hira(0.5, 4),
            policy::noref().with_para_immediate(0.125),
            policy::noref().with_para_hira(0.5, 4),
            policy::refpb().with_para_immediate(0.5),
            policy::hira(4).with_para_hira(0.5, 4),
            policy::hira(8).with_para_hira(0.5, 2),
            policy::hira(3),
            policy::hira(u32::MAX),
        ] {
            add(&h);
        }
        all
    }

    /// The lead each handle's built instance reported (`RefreshPolicy::
    /// hira_lead` of channel 0, rank 0) before the lead moved onto the
    /// handle.
    const BUILT_LEADS: [(&str, Option<(f64, f64)>); 48] = [
        ("baseline", None),
        ("baseline+para(p=0.0664)", None),
        ("baseline+para(p=0.1307)", None),
        ("baseline+para(p=0.2532)", None),
        ("baseline+para(p=0.4754)", None),
        ("baseline+para(p=0.5000)", None),
        ("baseline+para(p=0.8392)", None),
        ("baseline+para@hira0(p=0.0664)", Some((3.0, 3.0))),
        ("baseline+para@hira0(p=0.1307)", Some((3.0, 3.0))),
        ("baseline+para@hira0(p=0.2532)", Some((3.0, 3.0))),
        ("baseline+para@hira0(p=0.4754)", Some((3.0, 3.0))),
        ("baseline+para@hira0(p=0.8392)", Some((3.0, 3.0))),
        ("baseline+para@hira2(p=0.0665)", Some((3.0, 3.0))),
        ("baseline+para@hira2(p=0.1312)", Some((3.0, 3.0))),
        ("baseline+para@hira2(p=0.2551)", Some((3.0, 3.0))),
        ("baseline+para@hira2(p=0.4819)", Some((3.0, 3.0))),
        ("baseline+para@hira2(p=0.8594)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.0667)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.1317)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.2570)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.4887)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.5000)", Some((3.0, 3.0))),
        ("baseline+para@hira4(p=0.8806)", Some((3.0, 3.0))),
        ("baseline+para@hira8(p=0.0669)", Some((3.0, 3.0))),
        ("baseline+para@hira8(p=0.1327)", Some((3.0, 3.0))),
        ("baseline+para@hira8(p=0.2609)", Some((3.0, 3.0))),
        ("baseline+para@hira8(p=0.5028)", Some((3.0, 3.0))),
        ("baseline+para@hira8(p=0.9261)", Some((3.0, 3.0))),
        ("hira0", Some((3.0, 3.0))),
        ("hira0-noRA", Some((3.0, 3.0))),
        ("hira2", Some((3.0, 3.0))),
        ("hira2-noRA", Some((3.0, 3.0))),
        ("hira3", Some((3.0, 3.0))),
        ("hira4", Some((3.0, 3.0))),
        ("hira4+para@hira4(p=0.5000)", Some((3.0, 3.0))),
        ("hira4-noRA", Some((3.0, 3.0))),
        ("hira4-noRR", Some((3.0, 3.0))),
        ("hira4-singles", Some((3.0, 3.0))),
        ("hira4294967295", Some((3.0, 3.0))),
        ("hira8", Some((3.0, 3.0))),
        ("hira8+para@hira2(p=0.5000)", Some((3.0, 3.0))),
        ("hira8-noRA", Some((3.0, 3.0))),
        ("noref", None),
        ("noref+para(p=0.1250)", None),
        ("noref+para@hira4(p=0.5000)", Some((3.0, 3.0))),
        ("raidr", None),
        ("refpb", None),
        ("refpb+para(p=0.5000)", None),
    ];

    #[test]
    fn every_handle_carries_the_lead_its_instances_reported() {
        let handles = repository_handles();
        let names: Vec<&str> = handles.keys().map(String::as_str).collect();
        let recorded: Vec<&str> = BUILT_LEADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, recorded, "the repository selects other handles now");
        for (name, lead) in BUILT_LEADS {
            assert_eq!(handles[name].hira_lead(), lead, "{name}");
        }
    }
}
