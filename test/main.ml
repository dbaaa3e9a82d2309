(* Aggregated test runner: one alcotest "suite" per library module. *)

let () =
  Alcotest.run "counting_networks"
    (List.concat
       [
         Test_sequence.suite;
         Test_balancer.suite;
         Test_permutation.suite;
         Test_topology.suite;
         Test_eval.suite;
         Test_iso.suite;
         Test_render.suite;
         Test_ladder.suite;
         Test_merging.suite;
         Test_counting.suite;
         Test_verify.suite;
         Test_butterfly.suite;
         Test_blocks.suite;
         Test_sorting.suite;
         Test_baselines.suite;
         Test_sim.suite;
         Test_runtime.suite;
         Test_gcfree.suite;
         Test_metrics.suite;
         Test_analysis.suite;
         Test_antitokens.suite;
         Test_service.suite;
         Test_extensions.suite;
         Test_fuzz.suite;
         Test_timed.suite;
         Test_concurrency.suite;
         Test_feasibility.suite;
         Test_linearizability.suite;
         Test_grid.suite;
         Test_exhaustive.suite;
         Test_compose.suite;
         Test_check.suite;
         Test_lint.suite;
         Test_fabric.suite;
         Test_proto.suite;
       ])
