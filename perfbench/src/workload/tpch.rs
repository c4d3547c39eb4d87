//! `tpch_hot` and `tpch_spill`: all 22 TPC-H queries, caches off, on one
//! prepared directory. The two differ only in the memory they are given,
//! so their ratio is the out-of-core penalty.

use super::{Host, Mode, Pass, Target, Workload};
use crate::expected;
use crate::fixture::{self, Opened};
use crate::view::view_def;
use crate::RunCfg;
use monetlite::bind::ViewDef;
use monetlite::Connection;
use monetlite_tpch::queries;
use std::collections::HashMap;

/// Scale factor of the measured runs: lineitem is ~180k rows, three
/// executor morsels, and a `threads=1` pass takes about a third of a
/// second hot and a second under the spill budget.
pub const SF: f64 = 0.03;
/// Scale factor of `--smoke` runs.
pub const SMOKE_SF: f64 = 0.002;

/// The TPC-H workload state.
pub struct Tpch {
    kinds: Vec<String>,
    fx: Opened,
    conn: Connection,
    views: HashMap<String, ViewDef>,
    /// Hash of each query under the oracle options, for this seed.
    oracle: Vec<u64>,
    /// Committed hashes, when this is the default seed at full scale.
    committed: Option<Vec<u64>>,
    sf: f64,
    /// Operator memory budget of `tpch_spill` (`usize::MAX` on `tpch_hot`).
    memory_budget: usize,
}

impl Tpch {
    /// Prepare the directory (in child processes) and open it. `spill`
    /// gives resident columns an eighth of the data's bytes
    /// (`vmem_budget`) and operator state an eighth of that
    /// (`memory_budget`).
    ///
    /// The operator budget is explicit on purpose. Left unset, the
    /// executor inherits whatever vmem headroom the previous queries'
    /// resident columns happen to leave, and when that is near zero the
    /// spill partitioner recurses: at this scale Q4 wrote 7 MB into 13,440
    /// files with the budget at 1/8 and Q7 18 MB into 41,958 files at 1/6,
    /// while 1/4 and 1/12 stayed under 1,100. Which query falls off the
    /// cliff moves with the seed, and creating that many files takes
    /// anywhere from 0.2 s to 5 s on the sandbox's disk, so the inherited
    /// budget cannot be gated. With both budgets explicit the spill
    /// decisions depend on the data alone.
    pub fn setup(cfg: &RunCfg, spill: bool) -> Result<Tpch, String> {
        let sf = if cfg.smoke { SMOKE_SF } else { SF };
        let budget = |bytes: u64| if spill { (bytes / 8) as usize } else { usize::MAX };
        let fx = Opened::new(cfg, sf, |p| budget(p.user_bytes))?;
        let memory_budget = if spill { budget(fx.last().user_bytes) / 8 } else { usize::MAX };
        let mut conn = fx.db.connect();
        fixture::create_tpch_views(&mut conn).map_err(|e| e.to_string())?;
        let mut views = HashMap::new();
        for ddl in (1..=22).filter_map(queries::setup_sql) {
            let (name, def) = view_def(ddl).map_err(|e| e.to_string())?;
            views.insert(name, def);
        }
        Ok(Tpch {
            kinds: (1..=22).map(|n| format!("q{n:02}")).collect(),
            oracle: fx.last().oracle.clone(),
            fx,
            conn,
            views,
            committed: expected::hashes(cfg, "tpch"),
            sf,
            memory_budget,
        })
    }
}

impl Workload for Tpch {
    fn kinds(&self) -> &[String] {
        &self.kinds
    }

    fn pass(&mut self, idx: u64, threads: usize, mut mode: Mode<'_>) -> Pass {
        let mut pass = Pass::default();
        self.conn.set_exec_options(monetlite::exec::ExecOptions {
            memory_budget: self.memory_budget,
            ..fixture::exec_opts(threads, false)
        });
        let traced = matches!(mode, Mode::Traced(_));
        let vm0 = self.fx.db.vmem_stats();
        let mut target = Target { db: &self.fx.db, conn: &mut self.conn, views: &self.views };
        for n in 1..=22usize {
            let stmt = idx * 1_000_000 + n as u64;
            let Some(a) = target.select(
                &mut mode,
                &mut pass,
                n - 1,
                stmt,
                queries::sql(n),
                Host::ZeroCopy,
                true,
            ) else {
                continue;
            };
            pass.check(a.hash == self.oracle[n - 1], || format!("Q{n}: differs from the oracle"));
            if let Some(c) = &self.committed {
                pass.check(a.hash == c[n - 1], || format!("Q{n}: differs from expected/"));
            }
        }
        if traced {
            pass.publish_counters();
            let vm = self.fx.db.vmem_stats();
            pass.obs.extend([
                ("vmem.loads_per_pass", (vm.loads - vm0.loads) as f64),
                ("vmem.evictions_per_pass", (vm.evictions - vm0.evictions) as f64),
                ("vmem.bytes_loaded_per_pass", (vm.bytes_loaded - vm0.bytes_loaded) as f64),
                ("vmem.resident_mb", vm.resident_bytes as f64 / (1 << 20) as f64),
            ]);
        }
        pass
    }

    fn sf(&self) -> f64 {
        self.sf
    }

    fn setup_s(&self) -> f64 {
        self.fx.setup_s()
    }

    fn disk_bytes_per_user_byte(&self) -> f64 {
        self.fx.disk_bytes_per_user_byte()
    }

    fn final_obs(&self) -> Vec<(&'static str, f64)> {
        self.fx.obs()
    }

    fn expected(&mut self) -> Vec<u64> {
        self.oracle.clone()
    }
}
