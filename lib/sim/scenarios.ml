module Scenario = Agg_scenario.Scenario
module Exec = Agg_scenario.Exec

type entry = { file : string; outcome : (Exec.outcome, string) result }

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort String.compare
  |> List.map (fun f -> Filename.concat dir f)

let run_corpus ?events_cap ~(runner : Experiment.Runner.t) dir =
  List.map
    (fun file ->
      let outcome =
        match Scenario.load_file file with
        | Error _ as e -> e
        | Ok s ->
            Exec.run ~jobs:runner.Experiment.Runner.settings.Experiment.jobs ?events_cap
              ?scope:runner.Experiment.Runner.scope s
      in
      { file; outcome })
    (corpus_files dir)

let all_ok entries =
  List.for_all
    (fun e -> match e.outcome with Ok o -> o.Exec.ok | Error _ -> false)
    entries

let render entries =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      match e.outcome with
      | Error msg -> Buffer.add_string b (Printf.sprintf "ERROR %s: %s\n" e.file msg)
      | Ok o ->
          let checks = o.Exec.checks in
          let failed = List.filter (fun (c : Exec.check) -> not c.Exec.pass) checks in
          Buffer.add_string b
            (Printf.sprintf "%-4s %-28s events=%-6d checks=%d/%d%s\n"
               (if o.Exec.ok then "ok" else "FAIL")
               o.Exec.scenario.Scenario.name o.Exec.events
               (List.length checks - List.length failed)
               (List.length checks)
               (match failed with
               | [] -> ""
               | c :: _ ->
                   Printf.sprintf " first-fail=%s%s" c.Exec.check_name
                     (if o.Exec.scenario.Scenario.expect_violation then " (expected)" else ""))))
    entries;
  Buffer.contents b

let json_of_entries entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"scenarios\": [\n";
  List.iteri
    (fun idx e ->
      let sep = if idx = List.length entries - 1 then "" else "," in
      match e.outcome with
      | Error msg ->
          Buffer.add_string b
            (Printf.sprintf "    {\"file\": \"%s\", \"error\": \"%s\"}%s\n"
               (Agg_obs.Span.json_escape e.file) (Agg_obs.Span.json_escape msg) sep)
      | Ok o ->
          let cells =
            o.Exec.cells
            |> List.map (fun (c : Exec.cell) ->
                   Printf.sprintf "{\"policy\": \"%s\", \"hit_rate_pct\": %.2f}"
                     (Scenario.policy_name c.Exec.policy)
                     (match Exec.metric c "hit_rate" with Some v -> v | None -> 0.0))
            |> String.concat ", "
          in
          let checks =
            o.Exec.checks
            |> List.map (fun (c : Exec.check) ->
                   Printf.sprintf "{\"name\": \"%s\", \"pass\": %b, \"detail\": \"%s\"}"
                     (Agg_obs.Span.json_escape c.Exec.check_name)
                     c.Exec.pass
                     (Agg_obs.Span.json_escape c.Exec.detail))
            |> String.concat ", "
          in
          Buffer.add_string b
            (Printf.sprintf
               "    {\"file\": \"%s\", \"name\": \"%s\", \"events\": %d, \"ok\": %b, \"pass\": \
                %b, \"expect_violation\": %b,\n\
               \     \"cells\": [%s],\n\
               \     \"checks\": [%s]}%s\n"
               (Agg_obs.Span.json_escape e.file)
               (Agg_obs.Span.json_escape o.Exec.scenario.Scenario.name)
               o.Exec.events o.Exec.ok o.Exec.pass o.Exec.scenario.Scenario.expect_violation cells
               checks sep))
    entries;
  Buffer.add_string b (Printf.sprintf "  ],\n  \"all_ok\": %b\n}\n" (all_ok entries));
  Buffer.contents b
