(* Deadline supervisor, checkpoint store and retry ladder:

   - cancellation token semantics (cancel, budgets, nesting, zero-cost
     None path measured against the Clock.reads counter)
   - checkpoint round trips, staleness, torn-file rejection and the
     chaos kill hook
   - per-rung deadline coverage: a hang parked (via a scoped fault
     plan) at each escalation rung must surface as a typed
     Deadline_exceeded whose stage carries the rung label, and
     try_extract must never return a model after a tripped deadline
   - retry-with-backoff: a transient rung failure retries the rung
     without consuming an escalation step
   - pool exception safety: a poisoned fan-out leaves the pool usable *)

let with_clean_faults f =
  Fun.protect ~finally:(fun () -> ignore (Fault.disarm ())) f

(* --- cancellation token ---------------------------------------------- *)

let test_cancel_basics () =
  let t = Cancel.create () in
  Cancel.check (Some t) ~site:"test";
  Alcotest.(check bool) "not requested" false (Cancel.cancel_requested (Some t));
  Cancel.cancel t;
  Alcotest.(check bool) "requested" true (Cancel.cancel_requested (Some t));
  (match Cancel.check (Some t) ~site:"test.site" with
  | exception Cancel.Cancelled { site } ->
      Alcotest.(check string) "site recorded" "test.site" site
  | () -> Alcotest.fail "check did not raise after cancel");
  Cancel.check None ~site:"ignored"

let test_budget_trips () =
  let t = Cancel.create () in
  (match
     Cancel.with_budget (Some t) ~stage:"outer" ~seconds:60.0 (fun () ->
         Cancel.with_budget (Some t) ~stage:"inner" ~seconds:0.0 (fun () ->
             Cancel.check (Some t) ~site:"probe"))
   with
  | exception Cancel.Deadline_exceeded { site; stage; budget_seconds; _ } ->
      Alcotest.(check string) "innermost stage" "inner" stage;
      Alcotest.(check string) "probe site" "probe" site;
      Alcotest.(check (float 0.0)) "budget" 0.0 budget_seconds
  | () -> Alcotest.fail "nested zero budget did not trip");
  (* the scope must be popped: the token is reusable afterwards *)
  Cancel.check (Some t) ~site:"after";
  Alcotest.(check bool) "no deadline left" true
    (Cancel.remaining (Some t) = infinity)

let test_no_token_zero_clock_reads () =
  let t = Cancel.create () in
  (* no deadline armed anywhere: probes are an atomic load, never a
     clock read — on both the None and Some paths *)
  let r0 = Clock.reads () in
  for _ = 1 to 1000 do
    Cancel.check None ~site:"x";
    Cancel.check (Some t) ~site:"x"
  done;
  Alcotest.(check int) "zero clock reads" 0 (Clock.reads () - r0)

(* --- checkpoint store ------------------------------------------------- *)

let fresh_dir () =
  let marker = Filename.temp_file "test_resilience" ".ckptdir" in
  Sys.remove marker;
  marker

let test_checkpoint_round_trip () =
  let dir = fresh_dir () in
  let ck = Checkpoint.create ~dir ~fingerprint:"fp-1" in
  Alcotest.(check (option reject)) "missing reads as None" None
    (Checkpoint.load ck ~stage:"train");
  let x = 0.1 +. 0.2 in
  Checkpoint.store ck ~stage:"train"
    (Minijson.Obj [ ("x", Minijson.Num x) ]);
  (match Checkpoint.load ck ~stage:"train" with
  | Some (Minijson.Obj [ ("x", Minijson.Num y) ]) ->
      Alcotest.(check int64) "float bit-exact" (Int64.bits_of_float x)
        (Int64.bits_of_float y)
  | _ -> Alcotest.fail "round trip lost the payload");
  (* a different fingerprint is stale, not invalid *)
  let other = Checkpoint.create ~dir ~fingerprint:"fp-2" in
  Alcotest.(check bool) "stale reads as None" true
    (Checkpoint.load other ~stage:"train" = None);
  (* a torn file is typed-invalid *)
  let path = Checkpoint.file ck ~stage:"train" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub text 0 (String.length text / 2)));
  (match Checkpoint.load ck ~stage:"train" with
  | exception Checkpoint.Invalid { file; _ } ->
      Alcotest.(check string) "invalid names the file" path file
  | _ -> Alcotest.fail "torn artifact was not rejected");
  Sys.remove path;
  Sys.rmdir dir

let test_checkpoint_kill_hook () =
  let dir = fresh_dir () in
  let ck = Checkpoint.create ~dir ~fingerprint:"fp" in
  Checkpoint.arm_kill ~after_stores:2;
  Checkpoint.store ck ~stage:"a" Minijson.Null;
  (match Checkpoint.store ck ~stage:"b" Minijson.Null with
  | exception Checkpoint.Killed { stage; stores } ->
      Alcotest.(check string) "killed at stage" "b" stage;
      Alcotest.(check int) "after two stores" 2 stores
  | () -> Alcotest.fail "armed kill never fired");
  (* self-disarmed: further stores survive, and the killed store's
     artifact is complete on disk *)
  Checkpoint.store ck ~stage:"c" Minijson.Null;
  Alcotest.(check bool) "killed store landed" true
    (Checkpoint.load ck ~stage:"b" = Some Minijson.Null);
  ignore (Checkpoint.disarm_kill ());
  List.iter
    (fun s -> Sys.remove (Checkpoint.file ck ~stage:s))
    [ "a"; "b"; "c" ];
  Sys.rmdir dir

(* --- pool exception safety ------------------------------------------- *)

let test_poisoned_fanout () =
  Exec.with_pool ~domains:2 (fun pool ->
      (match
         Exec.parallel_init ~pool 64 (fun i ->
             if i = 13 then failwith "poison" else i)
       with
      | exception Failure m ->
          Alcotest.(check string) "task exception re-raised" "poison" m
      | _ -> Alcotest.fail "raising task did not propagate");
      (* the pool must not be wedged: both further fan-outs complete *)
      for _ = 1 to 2 do
        let a = Exec.parallel_init ~pool 64 (fun i -> i * i) in
        Alcotest.(check int) "pool still works" (63 * 63) a.(63)
      done)

(* --- pipeline-level supervision --------------------------------------- *)

let config = Tft_rvf.Pipeline.buffer_config ~snapshots:24 ()

let try_extract ?cancel ?budgets ?checkpoint_dir ?retry () =
  Tft_rvf.Pipeline.try_extract ~guard:Guard.default ?cancel ?budgets
    ?checkpoint_dir ?retry ~config
    ~netlist:(Circuits.Buffer.netlist ())
    ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()

let errors_with_stage report stage =
  List.filter
    (fun (e : Diag.event) -> e.Diag.level = Diag.Error && e.Diag.stage = stage)
    report.Diag.events

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Park a hang at exactly the k-th escalation rung (1-based): the
   numeric fault defeats rungs 1..k-1 (one probe call per Rvf.extract),
   and a scope-restricted hang plan waits inside rung k's first VF
   relocation sweep. The rung budget must reap it with a typed
   deadline whose stage names the rung. *)
let test_rung_deadline k label () =
  with_clean_faults (fun () ->
      if k > 1 then begin
        Fault.arm_exact ~site:"rvf.trace_nan" ~fire_at:1 ~burst:(k - 1) ();
        Fault.arm_also_exact ~site:"vf.spin"
          ~scope:("rung:" ^ label)
          ~fire_at:1 ~burst:1 ()
      end
      else
        Fault.arm_exact ~site:"vf.spin"
          ~scope:("rung:" ^ label)
          ~fire_at:1 ~burst:1 ();
      let budgets =
        { Tft_rvf.Pipeline.no_budgets with Tft_rvf.Pipeline.rung = Some 0.25 }
      in
      let outcome, report = try_extract ~budgets () in
      (match Fault.stats_for "vf.spin" with
      | Some s when s.Fault.fires = 1 -> ()
      | _ -> Alcotest.fail (label ^ ": scoped hang never fired"));
      Alcotest.(check bool)
        (label ^ ": no model after tripped deadline")
        true (outcome = None);
      let stage = "pipeline.fit:" ^ label in
      match errors_with_stage report stage with
      | [] ->
          Alcotest.fail
            (Printf.sprintf "%s: no Error event with stage %S" label stage)
      | e :: _ ->
          Alcotest.(check bool)
            (label ^ ": typed deadline in message")
            true
            (contains ~needle:"Deadline_exceeded" e.Diag.message))

let test_retry_recovers_rung () =
  with_clean_faults (fun () ->
      (* one transient failure at the base rung's first attempt *)
      Fault.arm_exact ~site:"rvf.trace_nan" ~fire_at:1 ~burst:1 ();
      let retry =
        {
          Tft_rvf.Pipeline.attempts = 2;
          backoff_seconds = 0.01;
          backoff_multiplier = 2.0;
        }
      in
      let outcome, report = try_extract ~retry () in
      Alcotest.(check bool) "model recovered" true (outcome <> None);
      Alcotest.(check (option string))
        "still the base rung" (Some "base")
        (Diag.find_note report "pipeline.ladder_rung");
      Alcotest.(check int) "one within-rung retry" 1
        (Diag.counter report "pipeline.rung_retries");
      Alcotest.(check int) "no escalation consumed" 0
        (Diag.counter report "pipeline.fit_retries"))

let test_budgets_arm_private_token () =
  (* budgets without an explicit token must still be live *)
  let budgets =
    { Tft_rvf.Pipeline.no_budgets with Tft_rvf.Pipeline.train = Some 0.0 }
  in
  let outcome, report = try_extract ~budgets () in
  Alcotest.(check bool) "no model" true (outcome = None);
  match errors_with_stage report "pipeline.train" with
  | [] -> Alcotest.fail "no Error event with stage pipeline.train"
  | e :: _ ->
      Alcotest.(check bool) "typed deadline" true
        (contains ~needle:"Deadline_exceeded" e.Diag.message)

let test_extract_checkpoint_resume () =
  (* the raising entry point's checkpoint path: run, then resume with
     every stage settled — bit-identical model, zero recompute *)
  let dir = fresh_dir () in
  let extract () =
    Tft_rvf.Pipeline.extract ~checkpoint_dir:dir ~config
      ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  let first = extract () in
  let d = Diag.create () in
  let resumed =
    Tft_rvf.Pipeline.extract ~checkpoint_dir:dir ~diag:d ~config
      ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  Alcotest.(check string) "bit-identical equations"
    (Hammerstein.Hmodel.equations first.Tft_rvf.Pipeline.model)
    (Hammerstein.Hmodel.equations resumed.Tft_rvf.Pipeline.model);
  let report = Diag.report d in
  List.iter
    (fun stage ->
      Alcotest.(check (option string))
        ("resumed " ^ stage) (Some "loaded")
        (Diag.find_note report ("checkpoint." ^ stage)))
    [ "train"; "tft"; "fit-o0" ];
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* the backend is part of the run fingerprint: a checkpoint set written
   by a dense-backend run is stale under the (sparse) default config —
   every stage recomputes, none is rejected as torn or undecodable *)
let test_dense_checkpoint_stale_under_default () =
  let dir = fresh_dir () in
  let run config =
    Tft_rvf.Pipeline.try_extract ~guard:Guard.default ~checkpoint_dir:dir
      ~config
      ~netlist:(Circuits.Buffer.netlist ())
      ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
  in
  let dense, _ = run { config with Tft_rvf.Pipeline.backend = Engine.Mna.Dense } in
  Alcotest.(check bool) "dense run stored a model" true (dense <> None);
  let outcome, report = run config in
  Alcotest.(check bool) "default run produced a model" true (outcome <> None);
  Alcotest.(check bool) "no errors" false (Diag.has_errors report);
  let warnings =
    List.filter_map
      (fun (e : Diag.event) ->
        if e.Diag.stage = "pipeline.checkpoint" then Some e.Diag.message
        else None)
      report.Diag.events
  in
  List.iter
    (fun stage ->
      Alcotest.(check (option string)) ("not resumed: " ^ stage) None
        (Diag.find_note report ("checkpoint." ^ stage));
      Alcotest.(check bool) ("stale: " ^ stage) true
        (List.exists
           (contains ~needle:(Printf.sprintf "stale %s artifact ignored" stage))
           warnings))
    [ "train"; "tft"; "fit-o0" ];
  Alcotest.(check bool) "nothing rejected as invalid" false
    (List.exists
       (fun m -> contains ~needle:"rejected" m || contains ~needle:"undecodable" m)
       warnings);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let rungs =
  [
    "base";
    "more-start-poles";
    "switched-weighting";
    "relaxed-min-imag";
    "combined";
  ]

(* --- artifact encoding -------------------------------------------------- *)

(* Checkpoint bytes for a complex matrix, recorded when Cmat still stored
   boxed Complex.t values: the split re/im storage must encode exactly
   the same document (row-major re, then im; -0, denormals and
   non-finite tokens included) and decode back to it. *)
let pinned_cmat_json =
  {|{"rows":2,"cols":3,"re":[1,-0,0.33333333333333331,-2.5e-300,6.0221407599999999e+23,"nan"],"im":[123456.789,4.9406564584124654e-324,-7,0.10000000000000001,"-inf","inf"]}|}

let test_artifact_cmat_encoding_pinned () =
  let v =
    [| 1.0; -0.0; 1.0 /. 3.0; -2.5e-300; 6.02214076e23; Float.nan;
       Float.infinity; Float.neg_infinity; 0.1; -7.0; 4.9e-324; 123456.789 |]
  in
  let m =
    Linalg.Cmat.init 2 3 (fun r c ->
        let k = (r * 3) + c in
        { Complex.re = v.(k); im = v.(11 - k) })
  in
  let encode m = Minijson.emit (Tft_rvf.Artifact.json_of_cmat m) in
  Alcotest.(check string) "encoding" pinned_cmat_json (encode m);
  let back = Tft_rvf.Artifact.cmat_of_json (Minijson.parse pinned_cmat_json) in
  Alcotest.(check string) "decode + re-encode" pinned_cmat_json (encode back)

let suite =
  [
    Alcotest.test_case "cancel basics" `Quick test_cancel_basics;
    Alcotest.test_case "budget trips innermost" `Quick test_budget_trips;
    Alcotest.test_case "probe is clock-free" `Quick
      test_no_token_zero_clock_reads;
    Alcotest.test_case "checkpoint round trip" `Quick
      test_checkpoint_round_trip;
    Alcotest.test_case "checkpoint kill hook" `Quick
      test_checkpoint_kill_hook;
    Alcotest.test_case "poisoned fan-out" `Quick test_poisoned_fanout;
    Alcotest.test_case "retry recovers rung" `Quick test_retry_recovers_rung;
    Alcotest.test_case "budgets arm private token" `Quick
      test_budgets_arm_private_token;
    Alcotest.test_case "extract checkpoint resume" `Quick
      test_extract_checkpoint_resume;
    Alcotest.test_case "artifact cmat encoding pinned" `Quick
      test_artifact_cmat_encoding_pinned;
    Alcotest.test_case "dense checkpoint stale under default" `Quick
      test_dense_checkpoint_stale_under_default;
  ]
  @ List.mapi
      (fun i label ->
        Alcotest.test_case
          (Printf.sprintf "deadline at rung %s" label)
          `Quick
          (test_rung_deadline (i + 1) label))
      rungs
