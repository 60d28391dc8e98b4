(* The repository benchmark: time-to-model and model-simulation throughput.

   One closed-loop client in one process issues one extraction (or one
   model simulation) at a time. Run through [perfbench/run.py], which
   builds this executable from source first:

     python3 perfbench/run.py --workload buffer --seed 0 --seconds 20 --trace 0

   With [--trace 0] the run reports the end-to-end metrics of
   BENCHMARK.json, measured with no tracing; their timings are paced (see
   pace.ml). With [--trace 1] it calls each layer's public functions
   itself, wraps every call in a span and reports the per-layer metrics,
   timed by the wall clock; the spans are written to
   [perfbench/out/] when the run ends. Nothing inside the library is
   instrumented. The last line of standard output is one JSON object; the
   lines before it are the human-readable report. The exit code is 1 when
   any output check failed and 2 on a usage error. *)

open Perfbench
module P = Tft_rvf.Pipeline
module N = Circuit.Netlist
module H = Hammerstein.Hmodel
module Mna = Engine.Mna

(* --- measurement helpers ------------------------------------------- *)

(* words allocated by this domain, and by domains that have ended *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  let w0 = words () in
  let t0 = Clock.now () in
  let r = f () in
  let t = Clock.elapsed t0 in
  (r, t, words () -. w0)

(* [measure] with paced time (see Pace): the end-to-end timings *)
type timed = { paced : float; wall : float; allocated : float }

let measure_paced f =
  let w0 = words () in
  let p = Pace.run f in
  (p.Pace.result, { paced = p.Pace.paced; wall = p.Pace.wall; allocated = words () -. w0 })

(* repeat [f] for at least [min_reps] calls and [budget] seconds; median
   seconds and median words per call, plus the last result *)
let repeat ?(min_reps = 5) ?(budget = 0.3) f =
  let ts = ref [] and ws = ref [] and last = ref None and n = ref 0 in
  let t_end = Clock.now () +. budget in
  while !n < min_reps || Clock.now () < t_end do
    let r, t, w = measure f in
    incr n;
    ts := t :: !ts;
    ws := w :: !ws;
    last := Some r
  done;
  ( Stats.median (Array.of_list !ts),
    Stats.median (Array.of_list !ws),
    Option.get !last )

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
          (fun kb -> kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- spans: kept in memory, written out when the run ends ----------- *)

type span = {
  id : int;
  name : string;
  op : int;  (** shared by every span of one extraction or probe *)
  parent : int;  (** -1 at the top level *)
  start : float;
  stop : float;
  alloc : float;  (** words allocated on the calling domain *)
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0

let span ~op name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let w0 = words () in
  let start = Clock.now () in
  let finish () =
    let stop = Clock.now () in
    open_spans := List.tl !open_spans;
    spans := { id; name; op; parent; start; stop; alloc = words () -. w0 } :: !spans
  in
  Fun.protect ~finally:finish f

let span_samples name f =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (f s) else None) !spans)

let span_median name = Stats.median (span_samples name (fun s -> s.stop -. s.start))
let span_alloc_median name = Stats.median (span_samples name (fun s -> s.alloc))

let write_spans path ~workload ~seed =
  let origin =
    List.fold_left (fun a s -> Float.min a s.start) infinity !spans
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": \"%s\", \"seed\": %d, \"spans\": [\n"
    (Minijson.escape workload) seed;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": \"%s\", \"op\": %d, \"parent\": %d, \
         \"start_s\": %s, \"end_s\": %s, \"alloc_words\": %s}"
        (if i = 0 then "" else ",\n")
        s.id (Minijson.escape s.name) s.op s.parent
        (Minijson.float (s.start -. origin))
        (Minijson.float (s.stop -. origin))
        (Minijson.float s.alloc))
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* --- fingerprints for the bit-identity checks ----------------------- *)

let add_bits b x = Buffer.add_int64_le b (Int64.bits_of_float x)

(* the model's equations plus the exact bits of its transfer function and
   DC curve on a fixed probe grid *)
let fingerprint model =
  let b = Buffer.create 4096 in
  Buffer.add_string b (H.equations model);
  List.iter
    (fun x ->
      add_bits b (H.dc_output model ~x);
      List.iter
        (fun f ->
          let z = H.transfer model ~x ~s:(Signal.Grid.s_of_hz f) in
          add_bits b z.Complex.re;
          add_bits b z.Complex.im)
        [ 1e3; 1e6; 1e8; 1e9; 3e9 ])
    [ 0.2; 0.4; 0.9; 1.4; 1.8 ];
  Digest.string (Buffer.contents b)

let finite_model model =
  List.for_all
    (fun x ->
      Float.is_finite (H.dc_output model ~x)
      && Float.is_finite (H.dc_gain model ~x))
    [ 0.4; 0.9; 1.4 ]

let wave_digest w =
  let b = Buffer.create 4096 in
  Array.iter (add_bits b) (Signal.Waveform.values w);
  Digest.string (Buffer.contents b)

let finite_wave w = Array.for_all Float.is_finite (Signal.Waveform.values w)

(* --- workloads ------------------------------------------------------- *)

type job = {
  config : P.config;
  netlist : N.t;
  input : string;
  output : Mna.output;
  pattern : int -> N.wave;  (** PRBS7 seed -> validation input *)
  bit_rate : float;
  steps_per_bit : int;
  max_surface_db : float;  (** accuracy bounds of the output checks *)
  max_time_rmse_mv : float;
}

let pattern_bits = 32

(* Fig. 9 step density *)
let buffer_steps_per_bit = 80

let buffer_job (inputs : Inputs.t) ~domains =
  let params = { Circuits.Buffer.default_params with rload = inputs.rload } in
  {
    config = P.buffer_config ~domains ();
    netlist = Circuits.Buffer.netlist ~params ();
    input = Circuits.Buffer.input_name;
    output = Circuits.Buffer.output;
    pattern =
      (fun seed ->
        Circuits.Buffer.bit_wave ~rate:2.5e9 ~seed ~length:pattern_bits ());
    bit_rate = 2.5e9;
    steps_per_bit = buffer_steps_per_bit;
    max_surface_db = -45.0;
    max_time_rmse_mv = 30.0;
  }

let grid_size = 16
let grid_pump_hz = 1e4
let grid_bit_rate = 1e5

let grid_job (inputs : Inputs.t) =
  let period = 1.0 /. grid_pump_hz in
  let snapshot_every = 4 and snapshots = 64 in
  let training =
    {
      P.wave =
        N.Sine
          { offset = 1.0; ampl = 1.0; freq = grid_pump_hz; phase = -.Float.pi /. 2.0 };
      t_stop = period;
      dt = period /. float_of_int (snapshot_every * snapshots);
      snapshot_every;
    }
  in
  {
    config =
      P.default_config_for ~points:24 ~backend:Mna.Sparse ~f_min:1e2 ~f_max:1e9
        ~training ();
    netlist =
      Circuits.Library.rc_grid ~rows:grid_size ~cols:grid_size
        ~diode_every:inputs.diode_stride ();
    input = Circuits.Library.grid_input;
    output = Circuits.Library.grid_output ~rows:grid_size ~cols:grid_size;
    pattern =
      (fun seed ->
        N.Bits
          {
            low = 0.2;
            high = 1.8;
            rate = grid_bit_rate;
            rise = 0.25 /. grid_bit_rate;
            bits = Signal.Source.prbs_bits ~seed ~length:pattern_bits;
          });
    bit_rate = grid_bit_rate;
    steps_per_bit = 20;
    max_surface_db = -50.0;
    (* no time-domain bound here: the 1e4 Hz pump is fast against the
       grid's slowest pole (~240 Hz), so the trajectory is not quasi-static
       and the model's DC curve misses the diode clamp; the figure is
       reported, not checked *)
    max_time_rmse_mv = infinity;
  }

let job_of (w : Inputs.workload) inputs =
  match w with
  | Buffer | Model_sim -> buffer_job inputs ~domains:1
  | Grid_sparse -> grid_job inputs

let extract job =
  P.extract ~config:job.config ~netlist:job.netlist ~input:job.input
    ~output:job.output ()

let t_stop job = float_of_int pattern_bits /. job.bit_rate
let dt job = t_stop job /. float_of_int (pattern_bits * job.steps_per_bit)

(* the designated input source driven by [wave], as Pipeline.extract and
   Report.validate do it *)
let with_wave netlist ~input ~wave =
  N.make
    (List.map
       (fun (c : N.component) ->
         if c.name <> input then c
         else
           match c.element with
           | N.Vsource { p; n; _ } -> N.vsource ~name:c.name p n wave
           | N.Isource { p; n; _ } -> N.isource ~name:c.name p n wave
           | N.Resistor _ | N.Capacitor _ | N.Inductor _ | N.Vccs _ | N.Vcvs _
           | N.Cccs _ | N.Diode _ | N.Junction_cap _ | N.Mosfet _ | N.Bjt _ ->
               invalid_arg "with_wave: input is not a source")
       netlist.N.components)

(* transistor-level reference response to one validation pattern *)
let spice_reference job wave =
  let mna =
    Mna.build ~inputs:[ job.input ] ~outputs:[ job.output ]
      (with_wave job.netlist ~input:job.input ~wave)
  in
  let run =
    Engine.Tran.run ~backend:job.config.P.backend mna ~t_stop:(t_stop job)
      ~dt:(dt job)
  in
  Engine.Tran.output_waveform run 0

let simulate job model wave =
  H.simulate model ~u:(N.wave_to_source wave) ~t_stop:(t_stop job) ~dt:(dt job)

(* model-vs-SPICE error: RMSE in mV, and the normalized RMSE in dB that
   the end-to-end metric reports *)
type error = { rmse_mv : float; nrmse_db : float }

let time_error reference modeled =
  {
    rmse_mv = 1e3 *. Signal.Waveform.rmse reference modeled;
    nrmse_db = Signal.Metrics.db20 (Signal.Waveform.nrmse reference modeled);
  }

(* --- the composed stage calls, routed as in pipeline.ml ------------- *)

let densify ~mna snapshots =
  Array.map
    (fun (snap : Engine.Tran.snapshot) ->
      if Linalg.Mat.rows snap.Engine.Tran.g_mat > 0 then snap
      else
        let ev =
          Mna.eval mna ~with_matrices:true ~time:snap.Engine.Tran.time
            snap.Engine.Tran.state
        in
        match (ev.Mna.g_mat, ev.Mna.c_mat) with
        | Some g, Some c -> { snap with Engine.Tran.g_mat = g; c_mat = c }
        | _, _ -> assert false)
    snapshots

(* the training transient with the sparse-to-dense fallback of pipeline.ml *)
let training_mna job =
  Mna.build ~inputs:[ job.input ] ~outputs:[ job.output ]
    (with_wave job.netlist ~input:job.input ~wave:job.config.P.training.P.wave)

let train job mna =
  let t = job.config.P.training in
  let opts =
    { Engine.Tran.default_opts with Engine.Tran.snapshot_every = t.P.snapshot_every }
  in
  let run backend =
    Engine.Tran.run ~opts ~backend mna ~t_stop:t.P.t_stop ~dt:t.P.dt
  in
  match job.config.P.backend with
  | Mna.Dense -> run Mna.Dense
  | Mna.Sparse -> (
      try run Mna.Sparse
      with Linalg.Splu.Singular _ | Linalg.Spclu.Singular _ -> run Mna.Dense)

let composed ~op job =
  let c = job.config in
  span ~op "compose" @@ fun () ->
  let mna = span ~op "engine.mna_build" (fun () -> training_mna job) in
  let training_run = span ~op "engine.tran" (fun () -> train job mna) in
  let with_pool f =
    if c.P.domains <= 1 then f None
    else Exec.with_pool ~domains:c.P.domains (fun pool -> f (Some pool))
  in
  with_pool @@ fun pool ->
  let estimator = Tft.Estimator.make ~delays:c.P.estimator_delays () in
  let build backend snapshots =
    Tft.Dataset.of_snapshots ?pool ~backend ~mna ~estimator
      ~freqs_hz:c.P.freqs_hz snapshots
  in
  let snapshots = training_run.Engine.Tran.snapshots in
  let dataset =
    span ~op "tft.dataset" (fun () ->
        match c.P.backend with
        | Mna.Dense -> build Mna.Dense snapshots
        | Mna.Sparse -> (
            try build Mna.Sparse snapshots
            with
            | Linalg.Splu.Singular _ | Linalg.Spclu.Singular _
            | Guard.Violation _
            ->
              build Mna.Dense (densify ~mna snapshots)))
  in
  let rvf =
    span ~op "rvf.extract" (fun () ->
        Rvf.extract ~config:c.P.rvf ?pool ~dataset ~input:0 ~output:0 ())
  in
  (training_run, dataset, rvf)

(* --- reporting -------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string; samples : int }

let report_line ?(note = "") m =
  Printf.printf "  %-38s %14.6g %-6s (n=%d)%s\n" m.m_name m.value m.unit_
    m.samples
    (if note = "" then "" else "  " ^ note)

let result_json ~tally metrics =
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
      (Minijson.escape m.m_name) (Minijson.float m.value)
      (Minijson.escape m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.Stats.failed = 0) tally.Stats.attempted tally.Stats.failed
    (String.concat ", " (List.map field metrics))

(* exactly the metrics the spec lists for this mode, in its units *)
let check_complete (spec : Spec.metric list) metrics =
  let names m = (m.m_name, m.unit_) in
  if List.map names metrics <> List.map (fun (s : Spec.metric) -> (s.name, s.unit_)) spec
  then failwith "measured metrics differ from BENCHMARK.json"

(* --- set-up ------------------------------------------------------------ *)

type prepared = {
  job : job;
  model_sim : (P.outcome * (N.wave * Signal.Waveform.t option) array) option;
      (** the model, and each pattern with its SPICE reference if it has one *)
}

(* Extraction workloads generate the circuit and warm the engine up with
   one training transient. A warm-up extraction would buy nothing: the
   first extraction of a process runs no slower than later ones (1.69 s
   then 1.72 s on the buffer). model-sim also extracts its model and runs
   the SPICE references of its first patterns. *)
let setup (w : Inputs.workload) (inputs : Inputs.t) =
  let job = job_of w inputs in
  match w with
  | Model_sim ->
      let o = extract job in
      let refs =
        Array.mapi
          (fun k p ->
            let wave = job.pattern p in
            ( wave,
              if k < Inputs.reference_count then Some (spice_reference job wave)
              else None ))
          inputs.Inputs.patterns
      in
      { job; model_sim = Some (o, refs) }
  | Buffer | Grid_sparse ->
      ignore (train job (training_mna job));
      { job; model_sim = None }

(* keep starting operations until [seconds] have passed and the tail
   percentile exists; never past [cap] seconds *)
let min_samples = Stats.tail_beyond + 1

let closed_loop ~seconds ~cap f =
  let t0 = Clock.now () in
  let n = ref 0 in
  while
    let e = Clock.elapsed t0 in
    (e < seconds || !n < min_samples) && e < cap
  do
    f !n;
    incr n
  done

let guarded tally ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      Stats.record tally ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

(* --- the untraced run: end-to-end metrics ------------------------------ *)

type measured = {
  ops : timed list;
  sim_times : float list;  (** seconds per simulated pattern *)
  errors : error list;  (** one per validation pattern *)
  outcome : P.outcome;  (** whose model is validated *)
}

(* model-sim: one operation simulates every pattern once; each output
   must be finite, bit-identical to the first simulation of its pattern,
   and, where a SPICE reference exists, accurate *)
let simulations job (o : P.outcome) refs ~seconds ~cap ~tally =
  let ops = ref [] in
  let digests = Array.make (Array.length refs) None in
  let check k wf =
    let _, reference = refs.(k) in
    let d = wave_digest wf in
    if digests.(k) = None then digests.(k) <- Some d;
    finite_wave wf
    && digests.(k) = Some d
    &&
    match reference with
    | Some r -> (time_error r wf).rmse_mv <= job.max_time_rmse_mv
    | None -> true
  in
  closed_loop ~seconds ~cap (fun _ ->
      match
        guarded tally ~what:"simulate" (fun () ->
            measure_paced (fun () ->
                Array.map (fun (wave, _) -> simulate job o.P.model wave) refs))
      with
      | None -> ()
      | Some (wfs, t) ->
          ops := t :: !ops;
          let ok = Array.for_all Fun.id (Array.mapi check wfs) in
          Stats.record tally ~what:"simulations finite, repeatable, accurate" ok);
  let errors =
    List.filter_map
      (fun (wave, reference) ->
        Option.map (fun r -> time_error r (simulate job o.P.model wave)) reference)
      (Array.to_list refs)
  in
  let per_pattern t = t /. float_of_int (Array.length refs) in
  {
    ops = !ops;
    sim_times = List.map (fun t -> per_pattern t.paced) !ops;
    errors;
    outcome = o;
  }

(* extraction workloads: every extraction must give the first one's model
   bit for bit; then the model is validated against SPICE *)
let extractions (w : Inputs.workload) job ~seconds ~cap ~tally =
  let ops = ref [] and first = ref None in
  closed_loop ~seconds ~cap (fun _ ->
      (* every extraction starts from the same collected heap *)
      Gc.full_major ();
      match
        guarded tally ~what:"extract" (fun () -> measure_paced (fun () -> extract job))
      with
      | None -> ()
      | Some (o, t) ->
          ops := t :: !ops;
          let fp = fingerprint o.P.model in
          if !first = None then first := Some (o, fp);
          Stats.record tally ~what:"extraction finite and bit-identical to the first"
            (finite_model o.P.model && Option.map snd !first = Some fp));
  let o, fp =
    match !first with Some f -> f | None -> failwith "no extraction succeeded"
  in
  (* the pooled path must reproduce the sequential model bit for bit *)
  (match w with
  | Buffer -> (
      match
        guarded tally ~what:"extract at domains=2" (fun () ->
            extract { job with config = { job.config with P.domains = 2 } })
      with
      | Some pooled ->
          Stats.record tally ~what:"domains=2 matches domains=1 bit for bit"
            (fingerprint pooled.P.model = fp)
      | None -> ())
  | Grid_sparse | Model_sim -> ());
  (* the model against the transistor level on fixed bit patterns *)
  let sim_times = ref [] and errors = ref [] in
  Array.iter
    (fun p ->
      let wave = job.pattern p in
      match guarded tally ~what:"validate" (fun () -> spice_reference job wave) with
      | None -> ()
      | Some reference ->
          let t, _, wf =
            repeat ~min_reps:10 ~budget:0.5 (fun () -> simulate job o.P.model wave)
          in
          sim_times := t :: !sim_times;
          let err = time_error reference wf in
          errors := err :: !errors;
          Stats.record tally ~what:"validation pattern within accuracy bound"
            (finite_wave wf && err.rmse_mv <= job.max_time_rmse_mv))
    Inputs.validation_patterns;
  { ops = !ops; sim_times = !sim_times; errors = !errors; outcome = o }

let setup_reps = 3

let end_to_end (w : Inputs.workload) (inputs : Inputs.t) ~seconds ~tally =
  let preps =
    List.init setup_reps (fun _ -> measure_paced (fun () -> setup w inputs))
  in
  let setup_s = Stats.median (Array.of_list (List.map (fun (_, t) -> t.paced) preps)) in
  let prep = fst (List.hd preps) in
  let job = prep.job in
  (* at most 120 s, so a run ends well inside 180 s *)
  let cap = Float.min 120.0 (Float.max 60.0 (3.0 *. seconds)) in
  let r =
    match prep.model_sim with
    | Some (o, refs) ->
        let fp = fingerprint o.P.model in
        List.iter
          (fun (p, _) ->
            let o', _ = Option.get p.model_sim in
            Stats.record tally ~what:"set-up extractions finite and bit-identical"
              (finite_model o'.P.model && fingerprint o'.P.model = fp))
          preps;
        simulations job o refs ~seconds ~cap ~tally
    | None -> extractions w job ~seconds ~cap ~tally
  in
  let model = r.outcome.P.model in
  let surface =
    Tft_rvf.Report.surface_error ~model ~dataset:r.outcome.P.dataset ~input:0
      ~output:0
  in
  Stats.record tally ~what:"surface error within accuracy bound"
    (surface.Tft_rvf.Report.rms_db <= job.max_surface_db);
  let ops = Array.of_list (List.map (fun t -> t.paced) r.ops) in
  let n = Array.length ops in
  let sims = Array.of_list r.sim_times in
  let mean f =
    List.fold_left (fun a e -> a +. f e) 0.0 r.errors
    /. float_of_int (List.length r.errors)
  in
  let tail = Stats.tail ops in
  Stats.record tally ~what:"enough operations for the tail percentile"
    (tail <> None);
  let m m_name value unit_ samples = { m_name; value; unit_; samples } in
  let metrics =
    [
      m "setup_s" setup_s "s" setup_reps;
      m "op_s" (Stats.median ops) "s" n;
      m "op_tail_s"
        (match tail with
        | Some t -> t.Stats.value
        | None -> Array.fold_left Float.max 0.0 ops)
        "s" n;
      m "alloc_mwords"
        (Stats.median (Array.of_list (List.map (fun t -> t.allocated) r.ops)) /. 1e6)
        "Mword" n;
      m "peak_rss_mb" (peak_rss_mb ()) "MB" 1;
      m "surface_rms_db" surface.Tft_rvf.Report.rms_db "dB" 1;
      m "time_nrmse_db" (mean (fun e -> e.nrmse_db)) "dB" (List.length r.errors);
    ]
  in
  let rvf = r.outcome.P.rvf in
  Printf.printf "structure: freq_poles=%d state_poles=%d order=%d snapshots=%d\n"
    rvf.Rvf.freq_info.Vf.Vfit.pole_count rvf.Rvf.residue_info.Vf.Vfit.pole_count
    (H.order model)
    (Array.length r.outcome.P.dataset.Tft.Dataset.samples);
  let op_name, tail_name, wall_name =
    match w with
    | Model_sim ->
        ("sim_pattern_set_s", "sim_pattern_set_tail_s", "sim_pattern_set_wall_s")
    | Buffer | Grid_sparse -> ("extract_s", "extract_tail_s", "extract_wall_s")
  in
  List.iter
    (fun mt ->
      match mt.m_name with
      | "op_s" -> report_line ~note:"[op_s]" { mt with m_name = op_name }
      | "op_tail_s" ->
          report_line
            ~note:
              (match tail with
              | Some t -> Printf.sprintf "[op_tail_s] p%.1f" t.Stats.percentile
              | None -> "[op_tail_s] fewer than 11 samples")
            { mt with m_name = tail_name }
      | _ -> report_line mt)
    metrics;
  (* not in BENCHMARK.json: the wall-clock medians behind the paced
     timings, which move with the host's load phases *)
  let wall_median ts = Stats.median (Array.of_list (List.map (fun t -> t.wall) ts)) in
  report_line (m "setup_wall_s" (wall_median (List.map snd preps)) "s" setup_reps);
  report_line (m wall_name (wall_median r.ops) "s" n);
  (* not in BENCHMARK.json: on model-sim it restates op_s, and on the
     extraction workloads it comes from a one-second window *)
  report_line
    (m "sim_bits_per_s"
       (float_of_int pattern_bits /. Stats.median sims)
       "bit/s" (Array.length sims));
  report_line (m "time_rmse_mv" (mean (fun e -> e.rmse_mv)) "mV" (List.length r.errors));
  report_line (m "error_rate" (Stats.error_rate tally) "ratio" tally.Stats.attempted);
  metrics

(* --- the traced run: per-layer metrics ---------------------------------- *)

let next_op = ref 0

let new_op () =
  let op = !next_op in
  incr next_op;
  op

let mid a = a.(Array.length a / 2)

(* Clu.factor_into + solve_into on a real pencil of the workload's circuit *)
let clu_probe (o : P.outcome) freqs =
  let snap = mid o.P.training_run.Engine.Tran.snapshots in
  let ev =
    Mna.eval o.P.mna ~with_matrices:true ~time:snap.Engine.Tran.time
      snap.Engine.Tran.state
  in
  let g, c = (Option.get ev.Mna.g_mat, Option.get ev.Mna.c_mat) in
  let n = Linalg.Mat.rows g in
  let b = Mna.b_matrix o.P.mna in
  let pencil = Linalg.Cmat.create n n and ws = Linalg.Clu.workspace n in
  let bcols =
    Array.init (Linalg.Mat.cols b) (fun j ->
        Array.init n (fun i -> Linalg.Cx.re (Linalg.Mat.get b i j)))
  in
  let x = Array.make n Linalg.Cx.zero in
  let s = Signal.Grid.s_of_hz (mid freqs) in
  let op = new_op () in
  repeat (fun () ->
      span ~op "linalg.clu" (fun () ->
          Linalg.Cmat.lincomb_into pencil Linalg.Cx.one g s c;
          Linalg.Clu.factor_into ws pencil;
          Array.iter (fun bc -> Linalg.Clu.solve_into ws bc x) bcols))

(* Spclu.factor on the sparse pencil of the same snapshot *)
let spclu_probe (o : P.outcome) freqs =
  let mna = o.P.mna in
  let snap = mid o.P.training_run.Engine.Tran.snapshots in
  let ctx = Mna.sparse_ctx mna in
  let sev =
    Mna.eval_sparse mna ctx ~time:snap.Engine.Tran.time snap.Engine.Tran.state
  in
  let pat = Mna.sparse_pattern ctx in
  let pencil = Linalg.Sp.ccreate pat in
  Linalg.Sp.pencil_into pencil sev.Mna.sg sev.Mna.sc
    (Signal.Grid.s_of_hz (mid freqs));
  let op = new_op () in
  let t, _, lu =
    repeat (fun () -> span ~op "linalg.spclu" (fun () -> Linalg.Spclu.factor pencil))
  in
  (t, float_of_int (Linalg.Spclu.lu_nnz lu) /. float_of_int (Linalg.Sp.nnz pat))

(* rational-Krylov sweeps over every eighth snapshot *)
let krylov_probe (o : P.outcome) freqs =
  let mna = o.P.mna in
  let ctx = Mna.sparse_ctx mna in
  let ws =
    Engine.Ratkrylov.make_ws ~pat:(Mna.sparse_pattern ctx) ~b:(Mna.b_matrix mna)
      ~d:(Mna.d_matrix mna)
  in
  let ss = Array.map Signal.Grid.s_of_hz freqs in
  let snaps = o.P.training_run.Engine.Tran.snapshots in
  let op = new_op () in
  let shifts = ref 0 and fallback = ref 0 and sweeps = ref 0 in
  Array.iteri
    (fun k (snap : Engine.Tran.snapshot) ->
      if k mod 8 = 0 then begin
        let sev =
          Mna.eval_sparse mna ctx ~time:snap.Engine.Tran.time snap.Engine.Tran.state
        in
        let _, st =
          span ~op "engine.krylov" (fun () ->
              Engine.Ratkrylov.sweep ws ~g:sev.Mna.sg ~c:sev.Mna.sc ~ss)
        in
        incr sweeps;
        shifts := !shifts + st.Engine.Ratkrylov.shifts_used;
        fallback := !fallback + st.Engine.Ratkrylov.fallback_points
      end)
    snaps;
  let points = float_of_int (!sweeps * Array.length ss) in
  ( float_of_int !shifts /. float_of_int !sweeps,
    (points -. float_of_int !fallback) /. points )

let pool_domains = 2

let pool_probe () =
  let op = new_op () in
  let t, _, () =
    repeat ~min_reps:5 ~budget:0.05 (fun () ->
        let pool = span ~op "exec.pool_start" (fun () -> Exec.create ~domains:pool_domains ()) in
        Exec.shutdown pool)
  in
  t

(* sequential over pooled Dataset.of_snapshots, on a warm pool *)
let tft_speedup_probe job (o : P.outcome) =
  let c = job.config in
  let snaps = o.P.training_run.Engine.Tran.snapshots in
  let sub = Array.sub snaps 0 (Stdlib.min 16 (Array.length snaps)) in
  let estimator = Tft.Estimator.make ~delays:c.P.estimator_delays () in
  let build ?pool () =
    Tft.Dataset.of_snapshots ?pool ~backend:c.P.backend ~mna:o.P.mna ~estimator
      ~freqs_hz:c.P.freqs_hz sub
  in
  let op = new_op () in
  let seq, _, _ =
    repeat ~min_reps:3 ~budget:0.0 (fun () -> span ~op "tft.sequential" build)
  in
  let pooled =
    Exec.with_pool ~domains:pool_domains (fun pool ->
        ignore (build ~pool ());
        let t, _, _ =
          repeat ~min_reps:3 ~budget:0.0 (fun () ->
              span ~op "tft.pooled" (fun () -> build ~pool ()))
        in
        t)
  in
  seq /. pooled

let hammerstein_probe job model wave =
  let op = new_op () in
  let t, wd, _ =
    repeat (fun () -> span ~op "hammerstein.simulate" (fun () -> simulate job model wave))
  in
  let steps = float_of_int (pattern_bits * job.steps_per_bit) in
  (1e6 *. t /. float_of_int pattern_bits, wd /. steps)

let traced (w : Inputs.workload) (inputs : Inputs.t) ~seconds ~tally =
  let job = job_of w inputs in
  (* the reference model, and the snapshots and model the probes use *)
  let o = extract job in
  let fp = fingerprint o.P.model in
  let freqs = job.config.P.freqs_hz in
  let clu_t, clu_w, () = clu_probe o freqs in
  let spclu_t, fill = spclu_probe o freqs in
  let shifts, projected = krylov_probe o freqs in
  let pool_t = pool_probe () in
  let speedup = tft_speedup_probe job o in
  let sim_us, sim_words =
    hammerstein_probe job o.P.model (job.pattern Inputs.paper_pattern)
  in
  let untraced = ref [] and last = ref None in
  let iterations = ref 0 in
  let t0 = Clock.now () in
  while Clock.elapsed t0 < seconds || !iterations < 3 do
    let op = new_op () in
    (match guarded tally ~what:"composed stages" (fun () -> composed ~op job) with
    | None -> ()
    | Some ((_, dataset, rvf) as r) ->
        Stats.record tally ~what:"composed stages bit-identical to Pipeline.extract"
          (fingerprint rvf.Rvf.model = fp);
        let fs =
          span ~op "vf.frequency_stage" (fun () ->
              Rvf.frequency_stage ~config:job.config.P.rvf ~dataset ~input:0
                ~output:0 ())
        in
        last := Some (r, fs));
    (match guarded tally ~what:"extract" (fun () -> measure (fun () -> extract job)) with
    | None -> ()
    | Some (oc, t, _) ->
        untraced := t :: !untraced;
        Stats.record tally ~what:"extraction bit-identical to the reference"
          (fingerprint oc.P.model = fp));
    incr iterations
  done;
  let (tr, dataset, rvf), fs =
    match !last with Some r -> r | None -> failwith "no composed run succeeded"
  in
  let extract_s = Stats.median (Array.of_list !untraced) in
  let tran_s = span_median "engine.tran"
  and dataset_s = span_median "tft.dataset"
  and fit_s = span_median "rvf.extract" in
  let solves =
    float_of_int
      (Array.length dataset.Tft.Dataset.samples * Array.length dataset.Tft.Dataset.freqs_hz)
  in
  let n = !iterations in
  let m m_name value unit_ samples = { m_name; value; unit_; samples } in
  let metrics =
    [
      m "engine.tran_s" tran_s "s" n;
      m "engine.newton_iters" (float_of_int tr.Engine.Tran.newton_iterations) "count" 1;
      m "engine.tran_alloc_mwords" (span_alloc_median "engine.tran" /. 1e6) "Mword" n;
      m "engine.krylov_shifts" shifts "count" 1;
      m "engine.krylov_projected_frac" projected "ratio" 1;
      m "tft.dataset_s" dataset_s "s" n;
      m "tft.solve_us" (1e6 *. dataset_s /. solves) "us" n;
      m "tft.alloc_mwords" (span_alloc_median "tft.dataset" /. 1e6) "Mword" n;
      m "linalg.clu_solve_us" (1e6 *. clu_t) "us" 1;
      m "linalg.clu_alloc_words" clu_w "word" 1;
      m "linalg.spclu_factor_us" (1e6 *. spclu_t) "us" 1;
      m "linalg.spclu_fill_ratio" fill "ratio" 1;
      m "vf.freq_stage_s" (span_median "vf.frequency_stage") "s" n;
      m "vf.freq_iters" (float_of_int fs.Rvf.fs_info.Vf.Vfit.iterations_run) "count" 1;
      m "rvf.fit_s" fit_s "s" n;
      m "rvf.freq_poles" (float_of_int rvf.Rvf.freq_info.Vf.Vfit.pole_count) "count" 1;
      m "rvf.state_poles" (float_of_int rvf.Rvf.residue_info.Vf.Vfit.pole_count) "count" 1;
      m "rvf.alloc_mwords" (span_alloc_median "rvf.extract" /. 1e6) "Mword" n;
      m "hammerstein.sim_us_per_bit" sim_us "us" 1;
      m "hammerstein.sim_alloc_words_per_step" sim_words "word" 1;
      m "hammerstein.order" (float_of_int (H.order rvf.Rvf.model)) "count" 1;
      m "exec.pool_start_ms" (1e3 *. pool_t) "ms" 1;
      m "exec.tft_speedup" speedup "ratio" 1;
      m "pipeline.unaccounted_frac"
        (1.0 -. ((tran_s +. dataset_s +. fit_s) /. extract_s))
        "ratio" n;
      m "bench.trace_overhead_frac" ((span_median "compose" /. extract_s) -. 1.0) "ratio" n;
    ]
  in
  List.iter report_line metrics;
  report_line (m "error_rate" (Stats.error_rate tally) "ratio" tally.Stats.attempted);
  metrics

(* --- command line --------------------------------------------------------- *)

let usage =
  "bench.exe --workload <buffer|grid-sparse|model-sim> --seed <n> \
   --seconds <s> --trace <0|1>\n\
   bench.exe --spec   (print BENCHMARK.json)"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20.0 in
  let trace = ref 0 and spec = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "n");
      ("--seconds", Arg.Set_float seconds, "s");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--spec", Arg.Set spec, "print BENCHMARK.json and exit");
    ]
  in
  let usage_error msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> usage_error ("unexpected " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> usage_error m);
  if !spec then begin
    print_string (Spec.render Spec.spec);
    exit 0
  end;
  let w =
    match Inputs.of_name !workload with
    | Some w -> w
    | None -> usage_error ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !seconds <= 0.0 then usage_error "--seconds must be positive";
  let inputs = Inputs.of_seed !seed in
  Printf.printf "perfbench %s seed=%d trace=%d seconds=%g cores=%d\n"
    (Inputs.name w) !seed !trace !seconds
    (Domain.recommended_domain_count ());
  Printf.printf "inputs: rload=%.6g ohm diode_stride=%d model-sim patterns=%s\n"
    inputs.Inputs.rload inputs.Inputs.diode_stride
    (String.concat "," (Array.to_list (Array.map string_of_int inputs.Inputs.patterns)));
  let tally = Stats.tally () in
  let metrics, spec =
    if !trace = 0 then
      (end_to_end w inputs ~seconds:!seconds ~tally, Spec.spec.Spec.end_to_end)
    else begin
      let ms = traced w inputs ~seconds:!seconds ~tally in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let path =
        Printf.sprintf "perfbench/out/spans-%s-seed%d.json" (Inputs.name w) !seed
      in
      write_spans path ~workload:(Inputs.name w) ~seed:!seed;
      Printf.printf "spans: %d written to %s\n" (List.length !spans) path;
      (ms, Spec.spec.Spec.per_layer)
    end
  in
  check_complete spec metrics;
  List.iter (fun r -> Printf.printf "FAILED: %s\n" r) (List.rev tally.Stats.reasons);
  print_endline (result_json ~tally metrics);
  exit (if tally.Stats.failed = 0 then 0 else 1)
