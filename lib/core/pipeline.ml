type training = {
  wave : Circuit.Netlist.wave;
  t_stop : float;
  dt : float;
  snapshot_every : int;
}

type config = {
  training : training;
  freqs_hz : float array;
  estimator_delays : float list;
  rvf : Rvf.config;
  domains : int;
  backend : Engine.Mna.backend;
}

let default_config_for ?(points = 40) ?(domains = 1)
    ?(backend = Engine.Mna.Sparse) ~f_min ~f_max ~training () =
  {
    training;
    freqs_hz = Signal.Grid.frequencies_hz ~f_min ~f_max ~points;
    estimator_delays = [];
    rvf = Rvf.default_config;
    domains;
    backend;
  }

(* One warm pool per pipeline run: created before the first fan-out
   stage, reused by every stage (TFT pencil solves, VF relocation
   blocks, residue fits), shut down when the run returns. A caller who
   owns a longer-lived pool passes it in and keeps ownership — it is
   borrowed, never shut down here. [domains <= 1] never spawns and
   takes the sequential paths throughout. *)
let with_run_pool ?pool ~domains f =
  match pool with
  | Some _ -> f pool
  | None ->
      if domains <= 1 then f None
      else Exec.with_pool ~domains (fun pool -> f (Some pool))

type timing = {
  train_seconds : float;
  tft_seconds : float;
  fit_seconds : float;
}

type outcome = {
  model : Hammerstein.Hmodel.t;
  rvf : Rvf.result;
  dataset : Tft.Dataset.t;
  mna : Engine.Mna.t;
  training_run : Engine.Tran.result;
  timing : timing;
}

(* --- deadline supervision -------------------------------------------- *)

type budgets = {
  train : float option;
  tft : float option;
  fit : float option;
  rung : float option;
}

let no_budgets = { train = None; tft = None; fit = None; rung = None }

type retry = {
  attempts : int;
  backoff_seconds : float;
  backoff_multiplier : float;
}

(* one attempt per rung: exactly the historical ladder behaviour *)
let no_retry = { attempts = 1; backoff_seconds = 0.05; backoff_multiplier = 2.0 }

(* per-stage budgets only make sense against a token; when the caller
   supplies budgets without one, arm a private token so the deadlines
   are live *)
let resolve_cancel cancel (budgets : budgets option) =
  match (cancel, budgets) with
  | (Some _ as c), _ -> c
  | None, Some _ -> Some (Cancel.create ())
  | None, None -> None

(* bounded backoff between rung retries; cooperative so an armed
   deadline still reaps a run sleeping between attempts. No Unix
   dependency — the busy-wait is bounded by [retry.backoff_seconds]
   growth and the caller's deadline. *)
let backoff_wait cancel seconds =
  if seconds > 0.0 then begin
    let t0 = Clock.now () in
    while Clock.now () -. t0 < seconds do
      Cancel.check cancel ~site:"pipeline.backoff";
      Domain.cpu_relax ()
    done
  end

(* swap the designated input source's wave for the training pump *)
let with_wave netlist ~input ~wave =
  let swapped = ref false in
  let components =
    List.map
      (fun (c : Circuit.Netlist.component) ->
        if c.name <> input then c
        else begin
          match c.element with
          | Circuit.Netlist.Vsource { p; n; _ } ->
              swapped := true;
              Circuit.Netlist.vsource ~name:c.name p n wave
          | Circuit.Netlist.Isource { p; n; _ } ->
              swapped := true;
              Circuit.Netlist.isource ~name:c.name p n wave
          | Circuit.Netlist.Resistor _ | Circuit.Netlist.Capacitor _
          | Circuit.Netlist.Inductor _ | Circuit.Netlist.Vccs _
          | Circuit.Netlist.Vcvs _ | Circuit.Netlist.Cccs _
          | Circuit.Netlist.Diode _ | Circuit.Netlist.Junction_cap _
          | Circuit.Netlist.Mosfet _ | Circuit.Netlist.Bjt _ ->
              invalid_arg
                (Printf.sprintf "Pipeline.extract: input %S is not a source" input)
        end)
      netlist.Circuit.Netlist.components
  in
  if not !swapped then
    invalid_arg (Printf.sprintf "Pipeline.extract: no source named %S" input);
  Circuit.Netlist.make components

(* --- checkpoint plumbing --------------------------------------------- *)

(* The run fingerprint: canonical %.17g rendering of everything that
   determines the extraction's numerics. [domains] is deliberately
   excluded — results are bit-identical across domain counts, so a
   checkpoint taken at one parallelism resumes at any other. *)
let fingerprint_of ~config ~netlist ~input ~outputs =
  String.concat "\n"
    ((* dense fingerprints predate the backend knob and must stay
        byte-identical, so the line only appears for sparse runs *)
     (match config.backend with
     | Engine.Mna.Dense -> []
     | Engine.Mna.Sparse -> [ "backend=sparse" ])
    @ [
      "tft-pipeline-v1";
      "training.wave=" ^ Artifact.render_wave config.training.wave;
      "training.t_stop=" ^ Artifact.render_float config.training.t_stop;
      "training.dt=" ^ Artifact.render_float config.training.dt;
      "training.snapshot_every=" ^ string_of_int config.training.snapshot_every;
      "freqs_hz=" ^ Artifact.render_floats config.freqs_hz;
      "estimator_delays="
      ^ String.concat ","
          (List.map Artifact.render_float config.estimator_delays);
      "rvf=" ^ Artifact.render_rvf_config config.rvf;
      "input=" ^ input;
      "outputs=" ^ String.concat "," (List.map Artifact.render_output outputs);
        "netlist:";
        Artifact.canonical_netlist netlist;
      ])

let ck_of ~config ~netlist ~input ~outputs checkpoint_dir =
  match checkpoint_dir with
  | None -> None
  | Some dir ->
      let fp =
        Checkpoint.fingerprint_of_string
          (fingerprint_of ~config ~netlist ~input ~outputs)
      in
      Some (Checkpoint.create ~dir ~fingerprint:fp)

let load_ck ?obs diag ck ~stage decode =
  match ck with
  | None -> None
  | Some ckpt -> (
      match Checkpoint.load ckpt ~stage with
      | exception Checkpoint.Invalid { file; reason } ->
          Diag.warn diag ~stage:"pipeline.checkpoint"
            (Printf.sprintf "rejected torn/malformed %s: %s" file reason);
          Obs.checkpoint obs ~stage ~action:"invalid";
          None
      | None ->
          if Sys.file_exists (Checkpoint.file ckpt ~stage) then begin
            Diag.warn diag ~stage:"pipeline.checkpoint"
              (Printf.sprintf
                 "stale %s artifact ignored (fingerprint or schema changed)"
                 stage);
            Obs.checkpoint obs ~stage ~action:"stale"
          end;
          None
      | Some payload -> (
          match decode payload with
          | v ->
              Diag.note diag ("checkpoint." ^ stage) "loaded";
              Obs.checkpoint obs ~stage ~action:"load";
              Some v
          | exception Invalid_argument msg ->
              Diag.warn diag ~stage:"pipeline.checkpoint"
                (Printf.sprintf "undecodable %s artifact: %s" stage msg);
              Obs.checkpoint obs ~stage ~action:"invalid";
              None))

(* may raise [Checkpoint.Killed] when the chaos harness armed a
   simulated crash — always after the artifact is safely on disk *)
let store_ck ?obs diag ck ~stage encode v =
  match ck with
  | None -> ()
  | Some ckpt ->
      Checkpoint.store ckpt ~stage (encode v);
      Diag.incr diag "pipeline.checkpoint_stores";
      Obs.checkpoint obs ~stage ~action:"store"

(* --- stages ----------------------------------------------------------- *)

let build_mna ~config ~netlist ~input ~outputs =
  let training_netlist = with_wave netlist ~input ~wave:config.training.wave in
  Engine.Mna.build ~inputs:[ input ] ~outputs training_netlist

let run_train ?guard ?cancel ?diag ?trace ?metrics ?obs ~config ~mna () =
  let tran_opts =
    {
      Engine.Tran.default_opts with
      Engine.Tran.snapshot_every = config.training.snapshot_every;
    }
  in
  Obs.stage obs "pipeline.train";
  Diag.span diag "pipeline.train" (fun () ->
      Trace.span trace "pipeline.train" (fun () ->
          Fault.in_scope "stage:train" @@ fun () ->
          let go backend =
            Engine.Tran.run ~opts:tran_opts ?guard ?cancel ?diag ?trace
              ?metrics ?obs ~backend mna ~t_stop:config.training.t_stop
              ~dt:config.training.dt
          in
          match config.backend with
          | Engine.Mna.Dense -> go Engine.Mna.Dense
          | Engine.Mna.Sparse -> (
              try go Engine.Mna.Sparse
              with
              | (Linalg.Splu.Singular _ | Linalg.Spclu.Singular _) as e ->
                Diag.warn diag ~stage:"pipeline.train"
                  (Printf.sprintf
                     "sparse training transient failed (%s); retrying dense"
                     (Printexc.to_string e));
                Diag.incr diag "pipeline.sparse_fallbacks";
                go Engine.Mna.Dense)))

(* training transient + snapshot capture, shared by every entry point *)
let train_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ~config ~netlist
    ~input ~outputs () =
  let mna = build_mna ~config ~netlist ~input ~outputs in
  ( mna,
    run_train ?guard ?cancel ?diag ?trace ?metrics ?obs ~config ~mna () )

let tft_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool ~config ~mna
    ~training_run () =
  let estimator = Tft.Estimator.make ~delays:config.estimator_delays () in
  Obs.stage obs "pipeline.tft";
  Diag.span diag "pipeline.tft" (fun () ->
      Trace.span trace "pipeline.tft" (fun () ->
          Fault.in_scope "stage:tft" @@ fun () ->
          let build backend snapshots =
            Tft.Dataset.of_snapshots ?pool ?guard ?cancel ?diag ?trace
              ?metrics ?obs ~backend ~mna ~estimator
              ~freqs_hz:config.freqs_hz snapshots
          in
          let snapshots = training_run.Engine.Tran.snapshots in
          match config.backend with
          | Engine.Mna.Dense -> build Engine.Mna.Dense snapshots
          | Engine.Mna.Sparse -> (
              (* escalation: a singular sparse factorization or a guard
                 breach on the sparse path retries the transform
                 densely — the retry result is exactly what an all-dense
                 run would have produced *)
              try build Engine.Mna.Sparse snapshots
              with
              | ( Linalg.Splu.Singular _ | Linalg.Spclu.Singular _
                | Guard.Violation _ ) as e
              ->
                Diag.warn diag ~stage:"pipeline.tft"
                  (Printf.sprintf
                     "sparse TFT transform failed (%s); retrying dense"
                     (Printexc.to_string e));
                Diag.incr diag "pipeline.sparse_fallbacks";
                Obs.violation obs ~site:"pipeline.tft"
                  (Printexc.to_string e);
                build Engine.Mna.Dense
                  (Engine.Tran.with_jacobians mna snapshots))))

let extract ?guard ?cancel ?budgets ?checkpoint_dir ?diag ?trace ?metrics ?obs
    ?pool ~config ~netlist ~input ~output () =
  let cancel = resolve_cancel cancel budgets in
  let b = Option.value budgets ~default:no_budgets in
  let ck = ck_of ~config ~netlist ~input ~outputs:[ output ] checkpoint_dir in
  let t0 = Clock.now () in
  let mna = build_mna ~config ~netlist ~input ~outputs:[ output ] in
  Cancel.check cancel ~site:"pipeline.train";
  let training_run =
    match load_ck ?obs diag ck ~stage:"train" Artifact.tran_of_json with
    | Some r -> r
    | None ->
        let r =
          Cancel.with_budget cancel ~stage:"pipeline.train" ?seconds:b.train
            (fun () ->
              run_train ?guard ?cancel ?diag ?trace ?metrics ?obs ~config ~mna
                ())
        in
        store_ck ?obs diag ck ~stage:"train" Artifact.json_of_tran r;
        r
  in
  let t1 = Clock.now () in
  with_run_pool ?pool ~domains:config.domains @@ fun pool ->
  Cancel.check cancel ~site:"pipeline.tft";
  let dataset =
    match load_ck ?obs diag ck ~stage:"tft" Artifact.dataset_of_json with
    | Some d -> d
    | None ->
        let d =
          Cancel.with_budget cancel ~stage:"pipeline.tft" ?seconds:b.tft
            (fun () ->
              tft_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool
                ~config ~mna ~training_run ())
        in
        store_ck ?obs diag ck ~stage:"tft" Artifact.json_of_dataset d;
        d
  in
  let t2 = Clock.now () in
  Cancel.check cancel ~site:"pipeline.fit";
  let rvf =
    match load_ck ?obs diag ck ~stage:"fit-o0" Artifact.fit_of_json with
    | Some fit ->
        Diag.note diag "pipeline.ladder_rung" fit.Artifact.rung;
        Artifact.rvf_of_fit fit
    | None ->
        let r =
          Cancel.with_budget cancel ~stage:"pipeline.fit" ?seconds:b.fit
            (fun () ->
              Obs.stage obs "pipeline.fit";
              Diag.span diag "pipeline.fit" (fun () ->
                  Trace.span trace "pipeline.fit" (fun () ->
                      Rvf.extract ~config:config.rvf ?guard ?cancel ?diag
                        ?trace ?metrics ?obs ?pool ~dataset ~input:0 ~output:0
                        ())))
        in
        store_ck ?obs diag ck ~stage:"fit-o0" Artifact.json_of_fit
          (Artifact.fit_of_rvf ~rung:"base" r);
        r
  in
  let t3 = Clock.now () in
  {
    model = rvf.Rvf.model;
    rvf;
    dataset;
    mna;
    training_run;
    timing =
      {
        train_seconds = t1 -. t0;
        tft_seconds = t2 -. t1;
        fit_seconds = t3 -. t2;
      };
  }

let extract_simo ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool ~config
    ~netlist ~input ~outputs () =
  if outputs = [] then invalid_arg "Pipeline.extract_simo: no outputs";
  let t0 = Clock.now () in
  let mna, training_run =
    train_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ~config ~netlist
      ~input ~outputs ()
  in
  let t1 = Clock.now () in
  with_run_pool ?pool ~domains:config.domains (fun pool ->
      let dataset =
        tft_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool ~config ~mna
          ~training_run ()
      in
      let t2 = Clock.now () in
      (* the per-output fits are independent too: reuse the same pool.
         A diag collector or trace buffer is single-owner mutable state,
         so the fits only fan out when neither is attached (the metrics
         registry is internally synchronized and rides along either
         way). When the fits themselves are the parallel axis, the pool
         is NOT also passed down into [Rvf.extract] — a worker-side
         nested fan-out would only hit the busy-pool sequential fallback
         anyway; when the fits run sequentially (diag/trace attached),
         each fit gets the pool for its inner axes instead. *)
      let fit_one ?diag ?trace ?obs ?pool j =
        let t3 = Clock.now () in
        let rvf =
          Rvf.extract ~config:config.rvf ?guard ?cancel ?diag ?trace ?metrics
            ?obs ?pool ~dataset ~input:0 ~output:j ()
        in
        let t4 = Clock.now () in
        {
          model = rvf.Rvf.model;
          rvf;
          dataset;
          mna;
          training_run;
          timing =
            {
              train_seconds = t1 -. t0;
              tft_seconds = t2 -. t1;
              fit_seconds = t4 -. t3;
            };
        }
      in
      let n = List.length outputs in
      (* the obs hub is internally synchronized, but its event stream
         interleaves across fits — keep the per-output fits sequential
         whenever any single-owner or ordered collector is attached *)
      match (diag, trace, obs) with
      | None, None, None ->
          Array.to_list
            (Exec.parallel_init ?pool ?cancel ?metrics ~label:"pipeline.fit" n
               (fun j -> fit_one j))
      | _, _, _ ->
          Obs.stage obs "pipeline.fit";
          Diag.span diag "pipeline.fit" (fun () ->
              Trace.span trace "pipeline.fit" (fun () ->
                  List.init n (fun j -> fit_one ?diag ?trace ?obs ?pool j))))

(* --- graceful degradation ------------------------------------------- *)

let escalation_ladder (rvf : Rvf.config) =
  let open Rvf in
  let more_poles c =
    {
      c with
      freq_start = Stdlib.min (c.freq_start + 4) c.max_freq_poles;
      state_start = Stdlib.min (c.state_start + 4) c.max_state_poles;
    }
  in
  let switch_weighting c =
    let flip (o : Vf.Vfit.opts) =
      {
        o with
        Vf.Vfit.weighting =
          (match o.Vf.Vfit.weighting with
          | Vf.Vfit.Uniform -> Vf.Vfit.Inv_sqrt
          | Vf.Vfit.Inv_sqrt | Vf.Vfit.Inv_magnitude -> Vf.Vfit.Uniform);
      }
    in
    { c with freq_opts = flip c.freq_opts }
  in
  let relax_min_imag c =
    { c with min_imag_fraction = c.min_imag_fraction /. 4.0 }
  in
  [
    (* the first rung is the untouched config: when it succeeds the
       non-raising path is bit-for-bit the raising one *)
    ("base", rvf);
    ("more-start-poles", more_poles rvf);
    ("switched-weighting", switch_weighting rvf);
    ("relaxed-min-imag", relax_min_imag rvf);
    ("combined", relax_min_imag (switch_weighting (more_poles rvf)));
  ]

let describe_exn = function
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | Failure m -> "Failure: " ^ m
  | Engine.Dc.No_convergence m -> "No_convergence: " ^ m
  | Linalg.Lu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: LU pivot %d has magnitude %.3e" pivot_index
        magnitude
  | Linalg.Clu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: complex LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Linalg.Splu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: sparse LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Linalg.Spclu.Singular { pivot_index; magnitude } ->
      Printf.sprintf "Singular: sparse complex LU pivot %d has magnitude %.3e"
        pivot_index magnitude
  | Guard.Violation v -> Guard.describe v
  | Cancel.Cancelled { site } -> Printf.sprintf "Cancelled: at %s" site
  | Cancel.Deadline_exceeded { site; stage; budget_seconds; elapsed_seconds } ->
      Printf.sprintf
        "Deadline_exceeded: stage %s ran %.3fs against a %.3fs budget (probe \
         %s)"
        stage elapsed_seconds budget_seconds site
  | Checkpoint.Invalid { file; reason } ->
      Printf.sprintf "Invalid checkpoint: %s: %s" file reason
  | e -> Printexc.to_string e

(* run [f ()] under [stage]; on a recoverable numerical failure record
   an Error event naming the stage and return None instead of raising.
   Cancellation, deadlines and the chaos harness's simulated crash are
   deliberately NOT recoverable: they propagate to the caller. *)
let recover ?obs diag ~stage f =
  try Some (f ())
  with
  | ( Invalid_argument _ | Failure _ | Engine.Dc.No_convergence _
    | Linalg.Lu.Singular _ | Linalg.Clu.Singular _ | Linalg.Splu.Singular _
    | Linalg.Spclu.Singular _ | Guard.Violation _ ) as e
    ->
    Diag.error diag ~stage (describe_exn e);
    Obs.violation obs ~site:stage (describe_exn e);
    None

let fit_with_ladder ?guard ?cancel ?(budgets = no_budgets) ?(retry = no_retry)
    ?ck ~diag ?trace ?metrics ?obs ?pool ~(config : config) ~dataset ~output
    () =
  let ck_stage = Printf.sprintf "fit-o%d" output in
  match load_ck ?obs diag ck ~stage:ck_stage Artifact.fit_of_json with
  | Some fit ->
      (* settled fit resumed from disk: restore the ladder note so the
         report reads identically to the uninterrupted run's *)
      Diag.note diag "pipeline.ladder_rung" fit.Artifact.rung;
      Some (Artifact.rvf_of_fit fit)
  | None ->
      let rec attempt = function
        | [] ->
            Diag.error diag ~stage:"pipeline.fit"
              (Printf.sprintf
                 "all %d escalation rungs failed for output %d; returning no \
                  model"
                 (List.length (escalation_ladder config.rvf))
                 output);
            None
        | (rung, rvf_config) :: rest -> (
            (* the rung label scopes both the per-rung deadline budget
               (stage "pipeline.fit:<rung>", so a tripped deadline names
               the rung in its typed payload) and the dynamic fault
               scope (so a hang can be armed at exactly one rung) *)
            let run_rung () =
              Fault.in_scope ("rung:" ^ rung) @@ fun () ->
              Cancel.with_budget cancel
                ~stage:("pipeline.fit:" ^ rung)
                ?seconds:budgets.rung
                (fun () ->
                  Diag.span diag "pipeline.fit" (fun () ->
                      Trace.span trace "pipeline.fit" (fun () ->
                          Rvf.extract ~config:rvf_config ?guard ?cancel ?diag
                            ?trace ?metrics ?obs ?pool ~dataset ~input:0
                            ~output ())))
            in
            let rec tries n =
              match run_rung () with
              | rvf -> Some rvf
              | exception
                  ((Cancel.Cancelled _ | Cancel.Deadline_exceeded _) as e) ->
                  (* a tripped deadline aborts the whole ladder: retrying
                     or escalating after the budget ran out would turn a
                     bounded run into an unbounded one *)
                  Obs.escalation obs ~rung ~outcome:"deadline"
                    ~detail:(describe_exn e);
                  raise e
              | exception
                  (( Invalid_argument _ | Failure _
                   | Engine.Dc.No_convergence _ | Linalg.Lu.Singular _
                   | Linalg.Clu.Singular _ | Linalg.Splu.Singular _
                   | Linalg.Spclu.Singular _ | Guard.Violation _ ) as e) ->
                  if n < retry.attempts then begin
                    (* transient failure with attempts left: retry this
                       rung after a bounded backoff, keeping the already
                       checkpointed train/TFT stages in memory rather
                       than restarting the ladder from zero *)
                    Diag.incr diag "pipeline.rung_retries";
                    Diag.warn diag ~stage:"pipeline.fit"
                      (Printf.sprintf
                         "rung %S attempt %d/%d failed (%s); retrying after \
                          backoff"
                         rung n retry.attempts (describe_exn e));
                    Obs.escalation obs ~rung ~outcome:"retry"
                      ~detail:(describe_exn e);
                    backoff_wait cancel
                      (retry.backoff_seconds
                      *. (retry.backoff_multiplier ** float_of_int (n - 1)));
                    tries (n + 1)
                  end
                  else begin
                    Diag.incr diag "pipeline.fit_retries";
                    Diag.warn diag ~stage:"pipeline.fit"
                      (Printf.sprintf "rung %S failed: %s" rung
                         (describe_exn e));
                    Obs.escalation obs ~rung ~outcome:"failed"
                      ~detail:(describe_exn e);
                    None
                  end
            in
            match tries 1 with
            | Some rvf ->
                Diag.note diag "pipeline.ladder_rung" rung;
                Obs.escalation obs ~rung ~outcome:"ok" ~detail:"";
                if rung <> "base" then
                  Diag.warn diag ~stage:"pipeline.fit"
                    (Printf.sprintf
                       "degraded extraction: base config failed, rung %S \
                        produced the model"
                       rung);
                store_ck ?obs diag ck ~stage:ck_stage Artifact.json_of_fit
                  (Artifact.fit_of_rvf ~rung rvf);
                Some rvf
            | None -> attempt rest)
      in
      attempt (escalation_ladder config.rvf)

let try_extract ?guard ?cancel ?budgets ?checkpoint_dir ?retry ?trace ?metrics
    ?obs ?pool ~config ~netlist ~input ~output () =
  let cancel = resolve_cancel cancel budgets in
  let b = Option.value budgets ~default:no_budgets in
  let ck = ck_of ~config ~netlist ~input ~outputs:[ output ] checkpoint_dir in
  (* with a hub attached, its own diag collector is the run's narrative
     so the returned report is exactly the bundle's diag.json *)
  let d = match obs with Some o -> Obs.diag o | None -> Diag.create () in
  let diag = Some d in
  (match guard with
  | None -> ()
  | Some (g : Guard.t) ->
      Diag.note diag "guard.enabled" "true";
      Diag.note diag "guard.snapshot_repair"
        (Guard.repair_to_string g.Guard.snapshot_repair));
  let t0 = Clock.now () in
  let outcome =
    try
      match
        recover ?obs diag ~stage:"pipeline.train" (fun () ->
            let mna = build_mna ~config ~netlist ~input ~outputs:[ output ] in
            Cancel.check cancel ~site:"pipeline.train";
            let training_run =
              match
                load_ck ?obs diag ck ~stage:"train" Artifact.tran_of_json
              with
              | Some r -> r
              | None ->
                  let r =
                    Cancel.with_budget cancel ~stage:"pipeline.train"
                      ?seconds:b.train (fun () ->
                        run_train ?guard ?cancel ?diag ?trace ?metrics ?obs
                          ~config ~mna ())
                  in
                  store_ck ?obs diag ck ~stage:"train" Artifact.json_of_tran r;
                  r
            in
            (mna, training_run))
      with
      | None -> None
      | Some (mna, training_run) -> (
          let t1 = Clock.now () in
          with_run_pool ?pool ~domains:config.domains @@ fun pool ->
          Cancel.check cancel ~site:"pipeline.tft";
          match
            recover ?obs diag ~stage:"pipeline.tft" (fun () ->
                match
                  load_ck ?obs diag ck ~stage:"tft" Artifact.dataset_of_json
                with
                | Some dset -> dset
                | None ->
                    let dset =
                      Cancel.with_budget cancel ~stage:"pipeline.tft"
                        ?seconds:b.tft (fun () ->
                          tft_stage ?guard ?cancel ?diag ?trace ?metrics ?obs
                            ?pool ~config ~mna ~training_run ())
                    in
                    store_ck ?obs diag ck ~stage:"tft"
                      Artifact.json_of_dataset dset;
                    dset)
          with
          | None -> None
          | Some dataset -> (
              let t2 = Clock.now () in
              Cancel.check cancel ~site:"pipeline.fit";
              match
                Cancel.with_budget cancel ~stage:"pipeline.fit" ?seconds:b.fit
                  (fun () ->
                    fit_with_ladder ?guard ?cancel ~budgets:b ?retry ?ck ~diag
                      ?trace ?metrics ?obs ?pool ~config ~dataset ~output:0 ())
              with
              | None -> None
              | Some rvf ->
                  let t3 = Clock.now () in
                  Some
                    {
                      model = rvf.Rvf.model;
                      rvf;
                      dataset;
                      mna;
                      training_run;
                      timing =
                        {
                          train_seconds = t1 -. t0;
                          tft_seconds = t2 -. t1;
                          fit_seconds = t3 -. t2;
                        };
                    }))
    with
    | Cancel.Cancelled { site } as e ->
        (* the supervisor contract: a cancelled or deadline-tripped run
           never yields a model, and the report names what stopped it *)
        Diag.error diag ~stage:"pipeline.cancelled" (describe_exn e);
        Obs.cancelled obs ~site;
        None
    | Cancel.Deadline_exceeded { site; stage; budget_seconds; elapsed_seconds }
      as e ->
        Diag.error diag ~stage (describe_exn e);
        Obs.deadline obs ~site ~stage ~budget_seconds ~elapsed_seconds;
        None
  in
  (outcome, Diag.report d)

let try_extract_simo ?guard ?cancel ?budgets ?retry ?trace ?metrics ?obs ?pool
    ~config ~netlist ~input ~outputs () =
  let cancel = resolve_cancel cancel budgets in
  let b = Option.value budgets ~default:no_budgets in
  let d = match obs with Some o -> Obs.diag o | None -> Diag.create () in
  let diag = Some d in
  (match guard with
  | None -> ()
  | Some _ -> Diag.note diag "guard.enabled" "true");
  if outputs = [] then begin
    Diag.error diag ~stage:"pipeline.train" "no outputs requested";
    ([], Diag.report d)
  end
  else
    let t0 = Clock.now () in
    let all_none () = List.map (fun _ -> None) outputs in
    try
      match
        recover ?obs diag ~stage:"pipeline.train" (fun () ->
            Cancel.with_budget cancel ~stage:"pipeline.train" ?seconds:b.train
              (fun () ->
                train_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ~config
                  ~netlist ~input ~outputs ()))
      with
      | None -> (all_none (), Diag.report d)
      | Some (mna, training_run) -> (
          let t1 = Clock.now () in
          with_run_pool ?pool ~domains:config.domains @@ fun pool ->
          match
            recover ?obs diag ~stage:"pipeline.tft" (fun () ->
                Cancel.with_budget cancel ~stage:"pipeline.tft" ?seconds:b.tft
                  (fun () ->
                    tft_stage ?guard ?cancel ?diag ?trace ?metrics ?obs ?pool
                      ~config ~mna ~training_run ()))
          with
          | None -> (all_none (), Diag.report d)
          | Some dataset ->
              let t2 = Clock.now () in
              let outcomes =
                List.mapi
                  (fun j _ ->
                    let t3 = Clock.now () in
                    match
                      fit_with_ladder ?guard ?cancel ~budgets:b ?retry ~diag
                        ?trace ?metrics ?obs ?pool ~config ~dataset ~output:j
                        ()
                    with
                    | None -> None
                    | Some rvf ->
                        let t4 = Clock.now () in
                        Some
                          {
                            model = rvf.Rvf.model;
                            rvf;
                            dataset;
                            mna;
                            training_run;
                            timing =
                              {
                                train_seconds = t1 -. t0;
                                tft_seconds = t2 -. t1;
                                fit_seconds = t4 -. t3;
                              };
                          })
                  outputs
              in
              (outcomes, Diag.report d))
    with
    | Cancel.Cancelled { site } as e ->
        Diag.error diag ~stage:"pipeline.cancelled" (describe_exn e);
        Obs.cancelled obs ~site;
        (List.map (fun _ -> None) outputs, Diag.report d)
    | Cancel.Deadline_exceeded { site; stage; budget_seconds; elapsed_seconds }
      as e ->
        Diag.error diag ~stage (describe_exn e);
        Obs.deadline obs ~site ~stage ~budget_seconds ~elapsed_seconds;
        (List.map (fun _ -> None) outputs, Diag.report d)

let buffer_config ?(snapshots = 100) ?(domains = 1) () =
  let freq = 1e6 in
  let period = 1.0 /. freq in
  let steps_per_snapshot = 4 in
  let steps = snapshots * steps_per_snapshot in
  {
    training =
      {
        wave = Circuits.Buffer.training_wave ~freq ();
        t_stop = period;
        dt = period /. float_of_int steps;
        snapshot_every = steps_per_snapshot;
      };
    freqs_hz = Signal.Grid.frequencies_hz ~f_min:1.0 ~f_max:1e10 ~points:40;
    estimator_delays = [];
    rvf =
      {
        Rvf.default_config with
        Rvf.max_freq_poles = 16;
        max_state_poles = 24;
        min_imag_fraction = 0.03;
      };
    domains;
    backend = Engine.Mna.Sparse;
  }

let extract_buffer ?guard ?diag ?trace ?metrics ?obs ?config () =
  let config = match config with Some c -> c | None -> buffer_config () in
  extract ?guard ?diag ?trace ?metrics ?obs ~config
    ~netlist:(Circuits.Buffer.netlist ())
    ~input:Circuits.Buffer.input_name ~output:Circuits.Buffer.output ()
