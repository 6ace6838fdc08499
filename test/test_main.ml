let () =
  Alcotest.run "castan"
    [
      ("util", Test_util.tests);
      ("pool", Test_pool.tests);
      ("ir", Test_ir.tests);
      ("lowering-diff", Test_lowering_diff.tests);
      ("solver", Test_solver.tests);
      ("solver-cache", Test_solver_cache.tests);
      ("cache", Test_cache.tests);
      ("hashrev", Test_hashrev.tests);
      ("symbex", Test_symbex.tests);
      ("nf", Test_nf.tests);
      ("testbed", Test_testbed.tests);
      ("replay", Test_replay.tests);
      ("core", Test_core.tests);
      ("resilience", Test_resilience.tests);
      ("obs", Test_obs.tests);
      ("profile", Test_profile.tests);
    ]
