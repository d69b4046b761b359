let () =
  Alcotest.run "cmvrp"
    [
      ("rng", Suite_rng.suite);
      ("stats", Suite_stats.suite);
      ("table", Suite_table.suite);
      ("pool", Suite_pool.suite);
      ("grid", Suite_grid.suite);
      ("ball", Suite_ball.suite);
      ("snake", Suite_snake.suite);
      ("graph", Suite_graph.suite);
      ("flow", Suite_flow.suite);
      ("transport", Suite_transport.suite);
      ("paramflow", Suite_paramflow.suite);
      ("demand", Suite_demand.suite);
      ("io", Suite_io.suite);
      ("des", Suite_des.suite);
      ("bisect", Suite_bisect.suite);
      ("answers", Suite_answers.suite);
      ("omega", Suite_omega.suite);
      ("oracle", Suite_oracle.suite);
      ("session", Suite_session.suite);
      ("alg1", Suite_alg1.suite);
      ("planner", Suite_planner.suite);
      ("localsearch", Suite_localsearch.suite);
      ("fig21", Suite_fig21.suite);
      ("online", Suite_online.suite);
      ("breakdown", Suite_breakdown.suite);
      ("transfer", Suite_transfer.suite);
      ("baselines", Suite_baselines.suite);
      ("gcmvrp", Suite_gcmvrp.suite);
      ("metrics", Suite_metrics.suite);
      ("serve", Suite_serve.suite);
      ("lint", Suite_lint.suite);
      ("race", Suite_race.suite);
      ("bench_report", Suite_bench_report.suite);
      ("properties", Suite_properties.suite);
    ]
