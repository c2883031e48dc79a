//! Canonical configuration strings and store keys are byte-identical to
//! those of the `format!` renderers they replaced, kept below as the
//! reference. Every configuration is rendered twice in a row and then in
//! alternating order, and the set holds timing tables edited after build
//! (signed zeros, NaN, huge and tiny values, neighbours one ulp apart), so
//! a rendering memo keyed on anything short of the exact field values
//! fails here.

use hira_bench::{cache_salt, ws_canonical};
use hira_dram::timing::TimingParams;
use hira_sim::{BuildError, DeviceRegistry, PluginRegistry, SystemBuilder, SystemConfig};
use hira_sim::{PluginHandle, PolicyHandle, WorkloadHandle};
use hira_store::point_key;
use hira_workload::{Trace, WorkloadEnv};

/// The timing table as `TimingParams::cache_descriptor` rendered it with
/// one `format!`.
fn reference_timing(t: &TimingParams) -> String {
    let TimingParams {
        t_ck,
        t_rcd,
        t_ras,
        t_rp,
        t_rc,
        t_rrd_l,
        t_rrd_s,
        t_faw,
        t_ccd_l,
        t_ccd_s,
        t_cl,
        t_cwl,
        t_bl,
        t_wr,
        t_wtr,
        t_rtp,
        t_rfc,
        t_refi,
        t_refw,
    } = t;
    format!(
        "tCK={t_ck};tRCD={t_rcd};tRAS={t_ras};tRP={t_rp};tRC={t_rc};\
         tRRDL={t_rrd_l};tRRDS={t_rrd_s};tFAW={t_faw};tCCDL={t_ccd_l};\
         tCCDS={t_ccd_s};tCL={t_cl};tCWL={t_cwl};tBL={t_bl};tWR={t_wr};\
         tWTR={t_wtr};tRTP={t_rtp};tRFC={t_rfc};tREFI={t_refi};tREFW={t_refw}"
    )
}

/// `SystemConfig::cache_descriptor` as it rendered through intermediate
/// strings and one `format!`.
fn reference_descriptor(cfg: &SystemConfig) -> String {
    let cap = match cfg.cycle_cap {
        Some(c) => c.to_string(),
        None => "default".to_string(),
    };
    let digest = match cfg.workload.content_digest() {
        Some(digest) => format!("#{digest:016x}"),
        None => String::new(),
    };
    let plugins = if cfg.plugins.is_empty() {
        "none".to_string()
    } else {
        cfg.plugins
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    };
    format!(
        "cores={};channels={};ranks={};banks={};bank_groups={};chip_gbit={};\
         device={};timing={};policy={};plugins={plugins};workload={}{digest};llc_bytes={};llc_ways={};\
         queue_depth={};insts={};warmup={};spt={};seed={};cycle_cap={}",
        cfg.cores,
        cfg.channels,
        cfg.ranks,
        cfg.banks,
        cfg.bank_groups,
        cfg.chip_gbit,
        cfg.device.name(),
        reference_timing(&cfg.timing),
        cfg.refresh.name(),
        cfg.workload.name(),
        cfg.llc_bytes,
        cfg.llc_ways,
        cfg.queue_depth,
        cfg.insts_per_core,
        cfg.warmup_insts,
        cfg.spt_fraction,
        cfg.seed,
        cap,
    )
}

/// A `trace:` workload over a captured `random` stream, saved in a scratch
/// directory.
fn trace_workload(dir: &std::path::Path) -> WorkloadHandle {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("golden.trace");
    let env = WorkloadEnv {
        core: 0,
        cores: 1,
        seed: 11,
    };
    Trace::capture(hira_workload::random().build(&env).as_mut(), 300)
        .save(&path)
        .unwrap();
    hira_workload::workload(&format!("trace:{}", path.display()))
}

/// Every registered device × six capacities × four policies × three plugin
/// sets × two workloads, less the cells the builder refuses (a HiRA policy
/// on a HiRA-inert device, a directed-refresh plugin on a VRR-less one).
fn grid(trace: &WorkloadHandle) -> Vec<SystemConfig> {
    let plugins = PluginRegistry::standard();
    let plugin = |spec: &str| plugins.lookup(spec).unwrap();
    let plugin_sets: [Vec<PluginHandle>; 3] = [
        vec![],
        vec![plugin("oracle:4")],
        vec![plugin("para:0.05"), plugin("graphene:2:64")],
    ];
    let policies: [PolicyHandle; 4] = [
        hira_sim::policy::baseline(),
        hira_sim::policy::hira(4),
        hira_sim::policy::hira(u32::MAX),
        hira_sim::policy::baseline().with_para_hira(0.0125, 4),
    ];
    let workloads = [hira_workload::mix(0), trace.clone()];
    let mut configs = Vec::new();
    for device in DeviceRegistry::standard().handles() {
        for cap in [0.5, 2.0, 8.0, 16.0, 64.0, 128.0] {
            for policy in &policies {
                for set in &plugin_sets {
                    for workload in &workloads {
                        let builder = set.iter().fold(
                            SystemBuilder::table3(cap)
                                .device(device.clone())
                                .policy(policy.clone())
                                .workload(workload.clone()),
                            |b, p| b.plugin(p.clone()),
                        );
                        match builder.build() {
                            Ok(cfg) => configs.push(cfg),
                            Err(
                                BuildError::DeviceLacksHira { .. }
                                | BuildError::DeviceLacksVrr { .. },
                            ) => {}
                            Err(e) => panic!("{} at {cap} Gb: {e}", device.name()),
                        }
                    }
                }
            }
        }
    }
    configs
}

/// Tables edited after build: values no device produces, and neighbours
/// one ulp apart in one field.
fn edited(base: &SystemConfig) -> Vec<SystemConfig> {
    let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
    let with = |edit: &dyn Fn(&mut TimingParams)| {
        let mut cfg = base.clone();
        edit(&mut cfg.timing);
        cfg
    };
    let mut out: Vec<SystemConfig> = [-0.0, 0.0, 1e21, 1e-7, f64::MAX, f64::NAN, 350.0]
        .into_iter()
        .map(|v| with(&|t| t.t_rfc = v))
        .collect();
    out.push(with(&|t| t.t_rfc = next_up(350.0)));
    out.push(with(&|t| t.t_ck = next_up(t.t_ck)));
    out.push(with(&|t| t.t_refw = next_up(t.t_refw)));
    out
}

#[test]
fn canonical_strings_and_keys_match_the_format_renderers() {
    let dir = std::env::temp_dir().join(format!("hira-golden-{}", std::process::id()));
    let trace = trace_workload(&dir);
    let mut configs = grid(&trace);
    let per_device = DeviceRegistry::standard().names().len();
    assert!(
        configs.len() >= 100 * per_device,
        "only {} configurations built",
        configs.len()
    );
    let built = configs.clone();
    for cfg in built.iter().step_by(37) {
        configs.extend(edited(cfg));
    }
    let salt = cache_salt();
    let check = |i: usize| {
        let cfg = &configs[i];
        let reference = format!("task=ws+stats;{}", reference_descriptor(cfg));
        let canonical = ws_canonical("ws+stats", cfg);
        assert_eq!(canonical, reference, "configuration {i}");
        assert_eq!(cfg.cache_descriptor(), reference_descriptor(cfg));
        let seed = i as u64 * 0x9E37_79B9;
        assert_eq!(
            point_key(&canonical, seed, salt),
            point_key(&reference, seed, salt)
        );
    };
    for i in 0..configs.len() {
        check(i);
        check(i);
    }
    for i in 0..configs.len() {
        check(i);
        check(configs.len() - 1 - i);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
