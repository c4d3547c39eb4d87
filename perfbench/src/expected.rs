//! Result hashes committed for the default seed at full scale. Any other
//! seed (and `--smoke`) relies on the oracle alone.

use crate::fixture::DEFAULT_SEED;
use crate::json::{self, Json};
use crate::RunCfg;

const COMMITTED: &str = include_str!("../expected/seed-20260611.json");

/// File the hashes live in, for `bench bless` to rewrite.
pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed-20260611.json")
}

/// Committed hashes under `key`, when this run is comparable with them.
pub fn hashes(cfg: &RunCfg, key: &str) -> Option<Vec<u64>> {
    if cfg.seed != DEFAULT_SEED || cfg.smoke || cfg.bless {
        return None;
    }
    let doc = json::parse(COMMITTED).expect("expected/ file is valid JSON");
    let list = doc.get(key)?.as_arr()?;
    list.iter().map(|h| h.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())).collect()
}

/// The file's content for the given `(key, hashes)` groups.
pub fn render(groups: &[(&str, Vec<u64>)]) -> String {
    let doc = Json::obj(groups.iter().map(|(k, hs)| {
        (*k, Json::Arr(hs.iter().map(|h| Json::str(crate::hash::hex(*h))).collect()))
    }));
    // One group per line keeps diffs of a re-bless readable.
    doc.render().replace("], ", "],\n ") + "\n"
}
