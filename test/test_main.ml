(* Aggregated alcotest entry point for all suites. *)

let () =
  Alcotest.run "cachetries"
    [
      ("util", Test_util.suite);
      ("cachetrie", Test_cachetrie.suite);
      ("cachetrie-concurrent", Test_cachetrie_concurrent.suite);
      ("cachetrie-props", Test_cachetrie_props.suite);
      ("battery-cachetrie", Test_battery.Cachetrie_battery.suite);
      ("battery-cachetrie-boxed", Test_battery.Boxed_cachetrie_battery.suite);
      ("battery-ctrie", Test_battery.Ctrie_battery.suite);
      ("battery-ctrie-snap", Test_battery.Ctrie_snap_battery.suite);
      ("battery-chm", Test_battery.Chm_battery.suite);
      ("battery-chm-striped", Test_battery.Striped_battery.suite);
      ("battery-skiplist", Test_battery.Skiplist_battery.suite);
      ("battery-cow-hamt", Test_battery.Cow_battery.suite);
      ("battery-oa-folklore", Test_battery.Folklore_battery.suite);
      ("ctrie", Test_ctrie_snap.ctrie_suite);
      ("ctrie-snap", Test_ctrie_snap.suite);
      ("hamt", Test_ctrie_snap.hamt_suite);
      ("skiplist", Test_skiplist.suite);
      ("chm", Test_chm.suite);
      ("analysis", Test_analysis.suite);
      ("lincheck", Test_lincheck.suite);
      ("chaos", Test_chaos.suite);
      ("soak", Test_soak.suite);
      ("mc", Test_mc.suite);
      ("harness", Test_harness.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("server", Test_server.suite);
      ("persist", Test_persist.suite);
      ("footprint", Test_footprint.suite);
    ]
