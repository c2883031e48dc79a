//! Sweep presets: the four comparison matrices as presets of one [`Grid`]
//! with the flags they share ([`MatrixArgs`]), and the channel/rank twins
//! of Figs. 13–16 ([`Geometry`]).

use crate::{
    axis_args, kernel_from_args, list_requested, maybe_print_telemetry, plugin_axis,
    preventive_schemes_geometry, print_device_list, print_kernel_list, print_plugin_list,
    print_policy_list, print_probe_list, print_series, print_workload_list, resolve_axis,
    write_bench, CacheSpec, Grid, ObsSpec, ProbeSpec, Scale, SweepRun, Task, WsTable,
};
use hira_engine::{flabel, Executor, RunRecord, ScenarioKey, Sweep};
use hira_sim::config::{KernelMode, SystemConfig};
use hira_sim::device::DeviceHandle;
use hira_sim::plugin::PluginHandle;
use hira_sim::policy::{self, PolicyHandle, PolicyRegistry};
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

    /// Prints the registries this preset's flags draw from, in axis
    /// order, then the probe forms and kernel modes (the `--list` output).
    fn print_lists(self) {
        for (axis, _) in self.axes() {
            let list: fn() = match *axis {
                "policy" => print_policy_list,
                "wl" => print_workload_list,
                "dev" => print_device_list,
                "plugin" => print_plugin_list,
                _ => continue,
            };
            list();
            println!();
        }
        print_probe_list();
        println!();
        print_kernel_list();
    }
}

/// The flags the four matrix binaries share, parsed once:
///
/// * axes — `--policy=`, `--workload=`, `--device=` and `--plugin=`
///   (`<name>[,<name>...]`, repeatable) subset the preset's axes by
///   registry name, including the dynamic forms (`hira<N>`, `mix<N>`,
///   `zipf<N>`, `rw<N>`, `open<N>`, `trace:<path>`, `ddr4-2400@<Gb>`,
///   `oracle:<tRH>`, `para:<p>`, `graphene:<tRH>:<k>`, and `none` for the
///   undefended point). A matrix reads only the flags of the axes it has;
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
    pub policies: Vec<(String, PolicyHandle)>,
    /// The `wl` axis (empty: the preset has none).
    pub workloads: Vec<(String, WorkloadHandle)>,
    /// The `dev` axis (empty: the preset has none).
    pub devices: Vec<(String, DeviceHandle)>,
    /// The `cap` axis in Gb (empty: the preset has none).
    pub caps: Vec<f64>,
    /// The `plugin` axis (empty: no plugin axis).
    pub plugins: Vec<(String, Option<PluginHandle>)>,
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
            matrix.print_lists();
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
        let registry = PolicyRegistry::standard();
        // A preset reads the flags of the axes it has, and only those.
        let names = |axis: &str, flag: &str| -> Vec<String> {
            let Some(&(_, defaults)) = matrix.axes().iter().find(|(a, _)| *a == axis) else {
                return Vec::new();
            };
            let chosen = if cli { axis_args(flag) } else { Vec::new() };
            if !chosen.is_empty() {
                chosen
            } else if defaults.is_empty() && axis == "policy" {
                registry.names().into_iter().map(str::to_owned).collect()
            } else {
                defaults.split_whitespace().map(str::to_owned).collect()
            }
        };
        let task = if matrix == Matrix::Device {
            Task::WsStats
        } else {
            Task::Ws
        };
        MatrixArgs {
            matrix,
            scale,
            policies: resolve_axis(names("policy", "policy"), policy::policy),
            workloads: resolve_axis(names("wl", "workload"), hira_workload::workload),
            devices: resolve_axis(names("dev", "device"), hira_sim::device::device),
            caps: if matrix == Matrix::Policy {
                vec![8.0, 64.0]
            } else {
                Vec::new()
            },
            plugins: plugin_axis(names("plugin", "plugin")),
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

/// Figs. 13/14: periodic refresh over the channel or rank count at 2, 8
/// and 32 Gb — one sweep over `capacity × scheme × geometry`, normalized
/// to Baseline at one channel and one rank. Prints the tables and the
/// `paper` note, and emits `BENCH_<name>.json` on request.
pub fn geometry_periodic(fig: u32, name: &str, geometry: Geometry, paper: &str) {
    let scale = Scale::from_env();
    let caps = [2.0, 8.0, 32.0];
    let schemes = [
        ("Baseline", policy::baseline()),
        ("HiRA-2", policy::hira(2)),
        ("HiRA-4", policy::hira(4)),
    ];
    let sweep = Sweep::new(name)
        .axis("cap", caps.map(|c| (flabel(c), c)), |_, c| *c)
        .axis("scheme", schemes.clone(), |&c, s| {
            SystemConfig::table3(c, s.clone())
        });
    let t = SweepRun::new(Executor::from_env(), scale).ws_over_mixes(geometry.axis(sweep));
    let names = schemes.map(|(n, _)| n);
    let (key, label) = geometry.names();
    for cap in caps {
        let counts = Geometry::COUNTS;
        println!(
            "== Fig. {fig}: {cap} Gb chips, {label} {counts:?} (normalized to Baseline 1ch/1rk) =="
        );
        let cap = flabel(cap);
        let base = t.mean(&[("cap", &cap), ("scheme", "Baseline"), (key, "1")]);
        geometry.print(&t, &[("cap", &cap)], &names, base);
    }
    println!("{paper}");
    t.emit();
}

/// Figs. 15/16: PARA with and without HiRA over the channel or rank count
/// — one sweep over `NRH × scheme × geometry`, where each scheme's `p_th`
/// depends on the NRH axis, plus one no-defense point all series are
/// normalized to. Prints the tables and the `paper` note, and emits
/// `BENCH_<name>.json` on request.
pub fn geometry_para(fig: u32, name: &str, geometry: Geometry, paper: &str) {
    let scale = Scale::from_env();
    let nrhs = [1024u32, 256, 64];
    let mut sweep = geometry.axis(
        Sweep::new(name)
            .axis("nrh", nrhs.map(|n| (n.to_string(), n)), |_, n| *n)
            .expand("scheme", |_, &nrh| {
                preventive_schemes_geometry(nrh)
                    .into_iter()
                    .map(|(n, handle)| (n.to_string(), SystemConfig::table3(8.0, handle)))
                    .collect()
            }),
    );
    sweep.push(
        ScenarioKey::root().with("scheme", "no-defense"),
        SystemConfig::table3(8.0, policy::baseline()),
    );
    let t = SweepRun::new(Executor::from_env(), scale).ws_over_mixes(sweep);
    let base = t.mean(&[("scheme", "no-defense")]);
    let label = geometry.names().1;
    for nrh in nrhs {
        let counts = Geometry::COUNTS;
        println!(
            "== Fig. {fig}: NRH = {nrh}, {label} {counts:?} (normalized to no-defense 1ch/1rk) =="
        );
        let nrh = nrh.to_string();
        geometry.print(&t, &[("nrh", &nrh)], &["PARA", "HiRA-2", "HiRA-4"], base);
    }
    println!("{paper}");
    t.emit();
}
