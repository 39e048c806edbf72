//! Every `exp_*` output is a function of its own arguments: what ran
//! before it in the same directory and model cache must not change it.
//!
//! A Table I run at one scale and a Fig. 5 run at another share the search
//! journal's file name and the model-cache directory; the Fig. 5 series
//! after the table run must equal the series of a Fig. 5 run in a fresh
//! directory. `AHW_CACHE` and the working directory are process-wide (the
//! journal path is relative), so this binary holds one test.

use ahw_bench::experiments::{fig5_al_sweep_target, hybrid_config_table};
use ahw_bench::Scale;
use ahw_core::zoo::ArchId;

#[test]
fn fig5_after_a_table_run_at_another_scale_matches_a_fresh_fig5() {
    let dir = std::env::temp_dir().join(format!("ahw_experiment_isolation_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    std::env::set_current_dir(&dir).expect("enter the scratch directory");
    std::env::set_var("AHW_CACHE", dir.join("cache"));

    let fig5 = || fig5_al_sweep_target(ArchId::Vgg19, 10, &Scale::quick(), false).unwrap();
    let fresh = fig5();
    hybrid_config_table(ArchId::Vgg19, 10, &Scale::tiny()).unwrap();
    let after_table = fig5();

    std::env::set_current_dir(std::env::temp_dir()).ok();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(after_table, fresh);
}
