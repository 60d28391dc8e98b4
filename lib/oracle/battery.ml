(* The oracle battery: every analytical-reference check in one sweep.
   Tolerances are deliberately far above observed errors (documented in
   DESIGN.md §12) but far below anything a real regression would
   produce; a NaN always fails because [nan <= bound] is false. *)

type metric = {
  metric : string;
  value : float;
  bound : float;
}

type verdict = {
  check : string;
  seconds : float;
  metrics : metric list;
  error : string option;
}

let metric_passed m = m.value <= m.bound
let verdict_passed v = v.error = None && List.for_all metric_passed v.metrics
let all_passed = List.for_all verdict_passed

let m metric value bound = { metric; value; bound }

(* run one check body, catching anything it throws *)
let checked name f =
  let t0 = Clock.now () in
  match f () with
  | metrics -> { check = name; seconds = Clock.elapsed t0; metrics; error = None }
  | exception e ->
      {
        check = name;
        seconds = Clock.elapsed t0;
        metrics = [];
        error = Some (Printexc.to_string e);
      }

(* ---------------- shared helpers ---------------- *)

let bits_differ a b =
  not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let mna_of (o : Ladder.oracle) =
  Engine.Mna.build ~inputs:[ o.Ladder.input ] ~outputs:[ o.Ladder.output ]
    o.Ladder.netlist

(* a log grid bracketing the oracle's own pole magnitudes, so every
   check samples where the dynamics actually live *)
let grid_for (o : Ladder.oracle) ~points =
  let mags = Array.map Complex.norm o.Ladder.exact.Ladder.poles in
  let w_min = Array.fold_left Float.min Float.infinity mags in
  let w_max = Array.fold_left Float.max 0.0 mags in
  let two_pi = 2.0 *. Float.pi in
  Signal.Grid.frequencies_hz
    ~f_min:(w_min /. two_pi /. 30.0)
    ~f_max:(w_max /. two_pi *. 30.0)
    ~points

(* transient training sine for a linear oracle: one period, slow
   against the slowest pole so the trajectory is quasi-static *)
let training_of (o : Ladder.oracle) =
  let mags = Array.map Complex.norm o.Ladder.exact.Ladder.poles in
  let w_min = Array.fold_left Float.min Float.infinity mags in
  let f_train = w_min /. (2.0 *. Float.pi) /. 50.0 in
  ( Circuit.Netlist.Sine { offset = 0.5; ampl = 0.4; freq = f_train; phase = 0.0 },
    1.0 /. f_train )

(* rebuild the oracle's netlist with the designated input re-waved *)
let with_wave (o : Ladder.oracle) wave =
  Circuit.Netlist.make
    (List.map
       (fun (c : Circuit.Netlist.component) ->
         if c.Circuit.Netlist.name = o.Ladder.input then
           match c.Circuit.Netlist.element with
           | Circuit.Netlist.Vsource { p; n; _ } ->
               Circuit.Netlist.vsource ~name:c.Circuit.Netlist.name p n wave
           | _ -> c
         else c)
       o.Ladder.netlist.Circuit.Netlist.components)

(* TFT dataset of a linear oracle from a quasi-static transient *)
let tft_dataset ?(steps = 400) ?(snapshot_every = 16) (o : Ladder.oracle)
    ~freqs_hz =
  let wave, t_stop = training_of o in
  let netlist = with_wave o wave in
  let mna =
    Engine.Mna.build ~inputs:[ o.Ladder.input ] ~outputs:[ o.Ladder.output ]
      netlist
  in
  let opts = { Engine.Tran.default_opts with Engine.Tran.snapshot_every } in
  let run =
    Engine.Tran.run ~opts mna ~t_stop ~dt:(t_stop /. float_of_int steps)
  in
  Tft.Dataset.of_snapshots ~mna ~estimator:(Tft.Estimator.make ()) ~freqs_hz
    run.Engine.Tran.snapshots

(* ---------------- AC pencil vs closed form ---------------- *)

let check_ac ~name ~points (o : Ladder.oracle) =
  checked name @@ fun () ->
  let mna = mna_of o in
  let at = Engine.Dc.solve mna in
  let freqs = grid_for o ~points in
  let h = Engine.Ac.sweep_siso mna ~at ~freqs_hz:freqs in
  let ss = Array.map Signal.Grid.s_of_hz freqs in
  let h0 = (Engine.Ac.sweep_siso mna ~at ~freqs_hz:[| 0.0 |]).(0) in
  [
    m "ac_rel_err" (Ladder.max_rel_error ~exact:o.Ladder.exact ~points:ss h) 1e-10;
    m "dc_gain_err"
      (Float.abs (h0.Complex.re -. Ladder.dc_gain o.Ladder.exact))
      1e-10;
    m "dc_gain_imag" (Float.abs h0.Complex.im) 1e-12;
  ]

(* ---------------- TFT of a linear circuit ---------------- *)

(* every snapshot of a linear circuit must carry the exact transfer
   function (state-independence), and VF on the TFT data must recover
   the closed-form poles and residues *)
let check_tft_vf ~name ~points ~snapshots (o : Ladder.oracle) =
  checked name @@ fun () ->
  let freqs_hz = grid_for o ~points in
  let steps = snapshots * 16 in
  let ds = tft_dataset ~steps o ~freqs_hz in
  let ss = Array.map Signal.Grid.s_of_hz freqs_hz in
  let surface_err =
    Array.fold_left
      (fun acc (s : Tft.Dataset.sample) ->
        let row = Array.map (fun h -> Linalg.Cmat.get h 0 0) s.Tft.Dataset.h in
        Float.max acc (Ladder.max_rel_error ~exact:o.Ladder.exact ~points:ss row))
      0.0 ds.Tft.Dataset.samples
  in
  let _, data = Tft.Dataset.siso ds ~input:0 ~output:0 in
  let n = Array.length o.Ladder.exact.Ladder.poles in
  let f_lo = freqs_hz.(0) and f_hi = freqs_hz.(Array.length freqs_hz - 1) in
  let poles0 =
    Vf.Pole.initial_frequency ~f_min:f_lo ~f_max:f_hi
      ~count:(if n mod 2 = 0 then n else n + 1)
  in
  let model, info = Vf.Vfit.fit ~poles:poles0 ~points:ss ~data () in
  (* an even starting count may leave one spurious slot when the true
     order is odd: match only the exact poles against the fitted set *)
  let pole_err =
    Array.fold_left
      (fun acc p ->
        let best = ref infinity in
        Array.iter
          (fun q ->
            best :=
              Float.min !best (Complex.norm (Complex.sub p q) /. Complex.norm p))
          model.Vf.Model.poles;
        Float.max acc !best)
      0.0 o.Ladder.exact.Ladder.poles
  in
  let residue_err =
    if Array.length model.Vf.Model.poles = n then
      Array.fold_left
        (fun acc e ->
          Float.max acc
            (Ladder.max_rel_residue_error ~exact:o.Ladder.exact ~model ~elem:e))
        0.0
        (Array.init (Vf.Model.n_elements model) (fun e -> e))
    else
      (* extra slots: compare behaviour instead of slot-by-slot *)
      Array.fold_left
        (fun acc e ->
          let fit_row = Array.map (Vf.Model.eval model ~elem:e) ss in
          Float.max acc
            (Ladder.max_rel_error ~exact:o.Ladder.exact ~points:ss fit_row))
        0.0
        (Array.init (Vf.Model.n_elements model) (fun e -> e))
  in
  [
    m "snapshot_rel_err" surface_err 1e-9;
    m "fit_rms" info.Vf.Vfit.rms 1e-9;
    m "pole_rel_err" pole_err 1e-8;
    m "residue_rel_err" residue_err 1e-8;
  ]

(* ---------------- synthetic Hammerstein round-trip ---------------- *)

let roundtrip_report = ref None

(* exact-class data converges past 1e-8 given enough relocation sweeps;
   the default 10 stops within a decade of the bound *)
let roundtrip_config =
  let c = Rvf.default_config in
  {
    c with
    Rvf.freq_opts = { c.Rvf.freq_opts with Vf.Vfit.iterations = 30 };
    state_opts = { c.Rvf.state_opts with Vf.Vfit.iterations = 30 };
  }

let run_roundtrip ~quick =
  let samples = if quick then 24 else 40 in
  let freqs = if quick then 16 else 30 in
  Synth.roundtrip ~config:roundtrip_config ~samples ~freqs Synth.default

let check_hammerstein_roundtrip ~quick () =
  checked "hammerstein-roundtrip" @@ fun () ->
  let r = run_roundtrip ~quick in
  roundtrip_report := Some r;
  [
    m "freq_pole_rel_err" r.Synth.freq_pole_rel_err 1e-8;
    m "state_pole_rel_err" r.Synth.state_pole_rel_err 1e-8;
    m "surface_rel_rms" r.Synth.surface_rel_rms 1e-8;
    m "dc_rel_max_err" r.Synth.dc_rel_max_err 1e-8;
  ]

let check_hammerstein_transient ~quick () =
  checked "hammerstein-transient" @@ fun () ->
  let r =
    match !roundtrip_report with
    | Some r -> r
    | None -> run_roundtrip ~quick
  in
  [ m "transient_nrmse" r.Synth.transient_nrmse 1e-6 ]

(* ---------------- dense vs fast relocation kernels ---------------- *)

(* the fast in-place kernel promises the same arithmetic as the legacy
   dense one, so the metric is a mismatch count over raw float bits *)
let check_kernel_parity ~quick () =
  checked "vf-kernel-parity" @@ fun () ->
  let o = Ladder.rlc () in
  let freqs_hz = grid_for o ~points:(if quick then 20 else 40) in
  let ss = Array.map Signal.Grid.s_of_hz freqs_hz in
  let data = [| Ladder.sample o.Ladder.exact ss |] in
  let n = Array.length o.Ladder.exact.Ladder.poles in
  let f_lo = freqs_hz.(0) and f_hi = freqs_hz.(Array.length freqs_hz - 1) in
  let poles0 =
    Vf.Pole.initial_frequency ~f_min:f_lo ~f_max:f_hi
      ~count:(if n mod 2 = 0 then n else n + 1)
  in
  let run kernel =
    Vf.Vfit.fit
      ~opts:
        {
          Vf.Vfit.default_frequency_opts with
          Vf.Vfit.relocation_kernel = kernel;
        }
      ~poles:poles0 ~points:ss ~data ()
  in
  let md, id = run Vf.Vfit.Dense in
  let mf, i_f = run Vf.Vfit.Fast in
  let mismatches = ref 0 in
  let cmp a b = if bits_differ a b then incr mismatches in
  if Array.length md.Vf.Model.poles <> Array.length mf.Vf.Model.poles then
    incr mismatches
  else
    Array.iteri
      (fun k (p : Complex.t) ->
        cmp p.Complex.re mf.Vf.Model.poles.(k).Complex.re;
        cmp p.Complex.im mf.Vf.Model.poles.(k).Complex.im)
      md.Vf.Model.poles;
  Array.iteri
    (fun e row -> Array.iteri (fun k c -> cmp c mf.Vf.Model.coeffs.(e).(k)) row)
    md.Vf.Model.coeffs;
  Array.iteri (fun e d -> cmp d mf.Vf.Model.consts.(e)) md.Vf.Model.consts;
  Array.iteri (fun e h -> cmp h mf.Vf.Model.slopes.(e)) md.Vf.Model.slopes;
  [
    m "kernel_bitwise_mismatches" (float_of_int !mismatches) 0.0;
    m "kernel_rms_abs_diff" (Float.abs (id.Vf.Vfit.rms -. i_f.Vf.Vfit.rms)) 0.0;
    m "fast_fit_rms" i_f.Vf.Vfit.rms 1e-9;
  ]

(* ---------------- full pipeline on the linear oracle ---------------- *)

let check_pipeline ~quick () =
  checked "pipeline-linear-model" @@ fun () ->
  let o = Ladder.rc ~stages:3 () in
  let wave, t_stop = training_of o in
  let steps = if quick then 240 else 480 in
  let training =
    {
      Tft_rvf.Pipeline.wave;
      t_stop;
      dt = t_stop /. float_of_int steps;
      snapshot_every = (if quick then 8 else 4);
    }
  in
  let mags = Array.map Complex.norm o.Ladder.exact.Ladder.poles in
  let two_pi = 2.0 *. Float.pi in
  let f_min =
    Array.fold_left Float.min Float.infinity mags /. two_pi /. 30.0
  in
  let f_max = Array.fold_left Float.max 0.0 mags /. two_pi *. 30.0 in
  let config =
    Tft_rvf.Pipeline.default_config_for
      ~points:(if quick then 16 else 30)
      ~f_min ~f_max ~training ()
  in
  let outcome =
    Tft_rvf.Pipeline.extract ~config ~netlist:o.Ladder.netlist
      ~input:o.Ladder.input ~output:o.Ladder.output ()
  in
  let v =
    Tft_rvf.Report.validate ~model:outcome.Tft_rvf.Pipeline.model
      ~netlist:o.Ladder.netlist ~input:o.Ladder.input ~output:o.Ladder.output
      ~wave ~t_stop ~dt:(t_stop /. float_of_int steps) ()
  in
  (* the model's frozen-state transfer must also match the closed form
     (a linear circuit's TFT hyperplane is flat along x) *)
  let freqs_hz = grid_for o ~points:(if quick then 16 else 30) in
  let ss = Array.map Signal.Grid.s_of_hz freqs_hz in
  let surface_err =
    Array.fold_left
      (fun acc x ->
        let row =
          Array.map
            (fun s ->
              Hammerstein.Hmodel.transfer outcome.Tft_rvf.Pipeline.model ~x ~s)
            ss
        in
        Float.max acc (Ladder.max_rel_error ~exact:o.Ladder.exact ~points:ss row))
      0.0 [| 0.2; 0.5; 0.8 |]
  in
  [
    m "validation_nrmse" v.Tft_rvf.Report.nrmse 1e-4;
    m "model_surface_rel_err" surface_err 1e-6;
  ]

(* ---------------- sparse backend vs dense backend ---------------- *)

(* the sparse tier's contract: re-stamped CSC Jacobians and per-point
   sparse pencil solves reproduce the dense per-snapshot transfer
   trajectories. A mildly nonlinear diode grid exercises the
   state-dependent refill. Errors are measured against the trajectory
   scale — per-point relative error is meaningless where |H| underflows
   toward the far corner of the mesh. *)
let check_sparse_parity ~quick () =
  checked "sparse-tft-parity" @@ fun () ->
  let rows = if quick then 5 else 6 and cols = if quick then 5 else 7 in
  let f_train = 2e3 in
  let wave =
    Circuit.Netlist.Sine
      { offset = 0.45; ampl = 0.3; freq = f_train; phase = 0.0 }
  in
  let netlist = Circuits.Library.rc_grid ~rows ~cols ~input_wave:wave () in
  let mna =
    Engine.Mna.build
      ~inputs:[ Circuits.Library.grid_input ]
      ~outputs:[ Circuits.Library.grid_output ~rows ~cols ]
      netlist
  in
  let t_stop = 1.0 /. f_train in
  let steps = 96 in
  let opts =
    { Engine.Tran.default_opts with Engine.Tran.snapshot_every = 12 }
  in
  let run =
    Engine.Tran.run ~opts mna ~t_stop ~dt:(t_stop /. float_of_int steps)
  in
  let freqs_hz =
    Signal.Grid.frequencies_hz ~f_min:1e3 ~f_max:1e8
      ~points:(if quick then 12 else 20)
  in
  let estimator = Tft.Estimator.make () in
  let dense =
    Tft.Dataset.of_snapshots ~mna ~estimator ~freqs_hz
      run.Engine.Tran.snapshots
  in
  let sparse =
    Tft.Dataset.of_snapshots ~backend:Engine.Mna.Sparse ~mna ~estimator
      ~freqs_hz run.Engine.Tran.snapshots
  in
  let get hm = Linalg.Cmat.get hm 0 0 in
  let scale = ref 0.0 in
  Array.iter
    (fun (s : Tft.Dataset.sample) ->
      scale := Float.max !scale (Float.abs (get s.Tft.Dataset.h0).Complex.re);
      Array.iter
        (fun hm -> scale := Float.max !scale (Complex.norm (get hm)))
        s.Tft.Dataset.h)
    dense.Tft.Dataset.samples;
  let h_err = ref 0.0 and h0_err = ref 0.0 in
  Array.iteri
    (fun k (sd : Tft.Dataset.sample) ->
      let sp = sparse.Tft.Dataset.samples.(k) in
      h0_err :=
        Float.max !h0_err
          (Complex.norm
             (Complex.sub (get sp.Tft.Dataset.h0) (get sd.Tft.Dataset.h0))
          /. !scale);
      Array.iteri
        (fun l hm ->
          h_err :=
            Float.max !h_err
              (Complex.norm (Complex.sub (get sp.Tft.Dataset.h.(l)) (get hm))
              /. !scale))
        sd.Tft.Dataset.h)
    dense.Tft.Dataset.samples;
  [
    m "samples_mismatch"
      (float_of_int
         (abs
            (Array.length dense.Tft.Dataset.samples
            - Array.length sparse.Tft.Dataset.samples)))
      0.0;
    m "transfer_rel_err" !h_err 1e-8;
    m "dc_rel_err" !h0_err 1e-8;
  ]

(* the sparse tier at scale: DC solve, then the extraction's per-point
   sparse sweep and the rational-Krylov sweep of a 1000-stage RC ladder,
   both against its closed-form tridiagonal spectrum — a size the dense
   path cannot reasonably touch per grid point *)
let check_large_ladder ~quick () =
  checked "large-ladder-recovery" @@ fun () ->
  let o = Ladder.rc ~stages:1000 () in
  let mna = mna_of o in
  let ctx = Engine.Mna.sparse_ctx mna in
  let sw = Engine.Dc.sparse_ws ~ctx mna in
  let at = Engine.Dc.solve ~backend:Engine.Mna.Sparse ~sparse:sw mna in
  let sev = Engine.Mna.eval_sparse mna ctx ~time:0.0 at in
  let g = sev.Engine.Mna.sg and c = sev.Engine.Mna.sc in
  let ws =
    Engine.Ratkrylov.make_ws
      ~pat:(Engine.Mna.sparse_pattern ctx)
      ~b:(Engine.Mna.b_matrix mna)
      ~d:(Engine.Mna.d_matrix mna)
  in
  let freqs = grid_for o ~points:(if quick then 24 else 40) in
  let ss = Array.map Signal.Grid.s_of_hz freqs in
  let sweep_metrics prefix h z0 =
    let row = Array.map (fun hm -> Linalg.Cmat.get hm 0 0) h in
    [
      m (prefix ^ "sweep_rel_err")
        (Ladder.max_rel_error ~exact:o.Ladder.exact ~points:ss row)
        1e-8;
      m (prefix ^ "dc_gain_err")
        (Float.abs (z0.Complex.re -. Ladder.dc_gain o.Ladder.exact))
        1e-8;
      m (prefix ^ "dc_gain_imag") (Float.abs z0.Complex.im) 1e-10;
    ]
  in
  let sws =
    Engine.Ac.Sparse.make_ws
      ~pat:(Engine.Mna.sparse_pattern ctx)
      ~b:(Engine.Mna.b_matrix mna)
      ~d:(Engine.Mna.d_matrix mna)
  in
  let hp = Engine.Ac.Sparse.transfer_sweep sws ~g ~c ~ss in
  let hp0 = Engine.Ac.Sparse.transfer_ws sws ~g ~c ~s:Complex.zero in
  let h, stats = Engine.Ratkrylov.sweep ws ~g ~c ~ss in
  let h0, _ = Engine.Ratkrylov.sweep ws ~g ~c ~ss:[| Complex.zero |] in
  sweep_metrics "" hp (Linalg.Cmat.get hp0 0 0)
  @ sweep_metrics "krylov_" h (Linalg.Cmat.get h0.(0) 0 0)
  @ [ m "krylov_worst_residual" stats.Engine.Ratkrylov.worst_residual 1e-10 ]

(* ---------------- split dense LU vs the boxed reference ---------------- *)

(* every TFT pencil of the paper's buffer extraction — the Section-IV
   training run's 101 snapshots × the 40-point grid plus DC — through
   the split kernels and through Clu_ref: the pencil, the permutation,
   every LU entry and Ac.transfer_ws's transfer matrix must agree bit
   for bit. Bounds are exact zeros. *)
let clu_parity () =
  checked "clu-split-parity" @@ fun () ->
  let config = Tft_rvf.Pipeline.buffer_config () in
  let tr = config.Tft_rvf.Pipeline.training in
  let mna = Circuits.Buffer.mna ~input_wave:tr.Tft_rvf.Pipeline.wave () in
  let opts =
    {
      Engine.Tran.default_opts with
      Engine.Tran.snapshot_every = tr.Tft_rvf.Pipeline.snapshot_every;
    }
  in
  let run =
    Engine.Tran.run ~opts mna ~t_stop:tr.Tft_rvf.Pipeline.t_stop
      ~dt:tr.Tft_rvf.Pipeline.dt
  in
  let ss =
    Array.append
      (Array.map Signal.Grid.s_of_hz config.Tft_rvf.Pipeline.freqs_hz)
      [| Complex.zero |]
  in
  let b = Engine.Mna.b_matrix mna and d = Engine.Mna.d_matrix mna in
  let n = Linalg.Mat.rows b in
  let ws = Engine.Ac.make_ws ~b ~d in
  let pencil = Linalg.Cmat.create n n in
  let clu = Linalg.Clu.workspace n and rf = Clu_ref.workspace n in
  let differ (a : Complex.t) (b : Complex.t) =
    bits_differ a.Complex.re b.Complex.re || bits_differ a.Complex.im b.Complex.im
  in
  let cmat_mismatches a b =
    let k = ref 0 in
    for i = 0 to Linalg.Cmat.rows a - 1 do
      for j = 0 to Linalg.Cmat.cols a - 1 do
        if differ (Linalg.Cmat.get a i j) (Linalg.Cmat.get b i j) then incr k
      done
    done;
    !k
  in
  let outcome f =
    match f () with
    | () -> None
    | exception Linalg.Clu.Singular { pivot_index; magnitude } ->
        Some (pivot_index, Int64.bits_of_float magnitude)
  in
  let pencils = ref 0 and singular = ref 0 in
  let pencil_mm = ref 0 and lu_mm = ref 0 and h_mm = ref 0 in
  Array.iter
    (fun (snap : Engine.Tran.snapshot) ->
      let g = snap.Engine.Tran.g_mat and c = snap.Engine.Tran.c_mat in
      Array.iter
        (fun s ->
          incr pencils;
          Linalg.Cmat.lincomb_into pencil Complex.one g s c;
          let boxed = Clu_ref.pencil ~g ~c ~s in
          pencil_mm := !pencil_mm + cmat_mismatches pencil boxed;
          let got = outcome (fun () -> Linalg.Clu.factor_into clu pencil) in
          let want = outcome (fun () -> Clu_ref.factor_into rf boxed) in
          if got <> want then incr lu_mm
          else if got <> None then incr singular
          else begin
            if Linalg.Clu.perm clu <> Clu_ref.perm rf then incr lu_mm;
            let lu = Linalg.Clu.lu clu and rlu = Clu_ref.lu rf in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if differ (Linalg.Cmat.get lu i j) rlu.((i * n) + j) then
                  incr lu_mm
              done
            done;
            h_mm :=
              !h_mm
              + cmat_mismatches
                  (Engine.Ac.transfer_ws ws ~g ~c ~s)
                  (Clu_ref.project rf ~b ~d)
          end)
        ss)
    run.Engine.Tran.snapshots;
  [
    m "pencils_short" (Float.abs (float_of_int ((101 * 41) - !pencils))) 0.0;
    m "singular_pencils" (float_of_int !singular) 0.0;
    m "pencil_bit_mismatches" (float_of_int !pencil_mm) 0.0;
    m "lu_bit_mismatches" (float_of_int !lu_mm) 0.0;
    m "transfer_bit_mismatches" (float_of_int !h_mm) 0.0;
  ]

(* ---------------- model simulation ---------------- *)

(* the paper's buffer model, extracted once for both checks below *)
let buffer_outcome = lazy (Tft_rvf.Pipeline.extract_buffer ())

(* ---------------- real-axis fit stage vs its reference ---------------- *)

let bit_distance a b =
  let rec popcount x acc =
    if Int64.equal x 0L then acc
    else popcount (Int64.logand x (Int64.pred x)) (acc + 1)
  in
  popcount (Int64.logxor (Int64.bits_of_float a) (Int64.bits_of_float b)) 0

(* the buffer's state-stage residue traces and static trace, refitted at
   every pole count of the state ladder by the fit stage (fast kernel,
   compacted rows, shared identification, in-place Eig) and by
   Vfit_ref (dense kernel, per-element identification, Eig_ref). The
   models and fit info must agree to the bit; failures must agree in
   kind. Uses the buffer extraction shared with the model checks below. *)
let real_axis_parity () =
  checked "vf-real-axis-parity" @@ fun () ->
  let o = Lazy.force buffer_outcome in
  let config = (Tft_rvf.Pipeline.buffer_config ()).Tft_rvf.Pipeline.rvf in
  let stage =
    Rvf.frequency_stage ~config ~dataset:o.Tft_rvf.Pipeline.dataset ~input:0
      ~output:0 ()
  in
  let sp = Rvf.state_problem ~config stage in
  let opts = { sp.Rvf.sp_opts with Vf.Vfit.relocation_kernel = Vf.Vfit.Fast } in
  let points = sp.Rvf.sp_points in
  let fits = ref 0 and differing_bits = ref 0 and outcome_mm = ref 0 in
  let outcome f =
    match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)
  in
  let floats (m : Vf.Model.t) (i : Vf.Vfit.info) =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (z : Complex.t) -> [| z.Complex.re; z.Complex.im |])
            m.Vf.Model.poles)
      @ Array.to_list m.Vf.Model.coeffs
      @ [
          m.Vf.Model.consts;
          m.Vf.Model.slopes;
          [| i.Vf.Vfit.rms; i.Vf.Vfit.max_err |];
        ])
  in
  let count = ref config.Rvf.state_start in
  while !count <= config.Rvf.max_state_poles do
    List.iter
      (fun data ->
        incr fits;
        let poles = sp.Rvf.sp_make_poles !count in
        let got =
          outcome (fun () -> Vf.Vfit.fit ~opts ~poles ~points ~data ())
        in
        let want =
          outcome (fun () -> Vfit_ref.fit ~opts ~poles ~points ~data)
        in
        match (got, want) with
        | Ok (mg, ig), Ok (mw, iw) ->
            let a = floats mg ig and b = floats mw iw in
            if
              Array.length a <> Array.length b
              || ig.Vf.Vfit.iterations_run <> iw.Vf.Vfit.iterations_run
              || ig.Vf.Vfit.pole_count <> iw.Vf.Vfit.pole_count
            then incr outcome_mm
            else
              Array.iteri
                (fun k x -> differing_bits := !differing_bits + bit_distance x b.(k))
                a
        | Error x, Error y when String.equal x y -> ()
        | _ -> incr outcome_mm)
      [ sp.Rvf.sp_traces; sp.Rvf.sp_static ];
    count := !count + config.Rvf.state_step
  done;
  (* the buffer's state ladder is 2, 4, ..., 24 poles, two inputs each *)
  [
    m "fits_short" (Float.abs (float_of_int (24 - !fits))) 0.0;
    m "differing_bits" (float_of_int !differing_bits) 0.0;
    m "outcome_mismatches" (float_of_int !outcome_mm) 0.0;
  ]


(* Hmodel.simulate's compiled shared-basis plan against the closure loop
   it replaced (Hmodel_ref): the buffer model and four synthetic truth
   models, each driven by 8 seeded 32-bit PRBS patterns at the buffer's
   2.5 GS/s, 40 steps per bit. Every time and value must agree bit for
   bit; bounds are exact zeros. *)
let plan_parity () =
  checked "hmodel-plan-parity" @@ fun () ->
  let models =
    (Lazy.force buffer_outcome).Tft_rvf.Pipeline.model
    :: Synth.model_of Synth.default
    :: List.init 3 (fun seed ->
           Synth.model_of (Gen.synth_params { Gen.seed; size = 1 }))
  in
  let t_stop = 32.0 /. 2.5e9 in
  let dt = t_stop /. (32.0 *. 40.0) in
  (* differing entries; a length difference counts as that many *)
  let mismatches a b =
    let k = ref (abs (Array.length a - Array.length b)) in
    for i = 0 to Stdlib.min (Array.length a) (Array.length b) - 1 do
      if bits_differ a.(i) b.(i) then incr k
    done;
    !k
  in
  let samples = ref 0 and times_mm = ref 0 and values_mm = ref 0 in
  List.iter
    (fun model ->
      for seed = 1 to 8 do
        let u =
          Circuit.Netlist.wave_to_source (Circuits.Buffer.bit_wave ~seed ())
        in
        let got = Hammerstein.Hmodel.simulate model ~u ~t_stop ~dt in
        let want = Hmodel_ref.simulate model ~u ~t_stop ~dt in
        let open Signal.Waveform in
        samples := !samples + length want;
        times_mm := !times_mm + mismatches (times got) (times want);
        values_mm := !values_mm + mismatches (values got) (values want)
      done)
    models;
  [
    m "samples_short" (float_of_int (Stdlib.max 0 ((5 * 8 * 1281) - !samples))) 0.0;
    m "time_bit_mismatches" (float_of_int !times_mm) 0.0;
    m "value_bit_mismatches" (float_of_int !values_mm) 0.0;
  ]

(* Outside the training envelope: a slow sine reaching 1.5 trained widths
   past both ends of the buffer's state range. The closed-form stages mix
   saturating atan terms with logarithmic ones, so the output must stay
   finite and within 1.25x of the model's own DC curve over the driven
   range. *)
let extrapolation () =
  checked "model-extrapolation" @@ fun () ->
  let o = Lazy.force buffer_outcome in
  let model = o.Tft_rvf.Pipeline.model in
  let x_lo, x_hi = o.Tft_rvf.Pipeline.rvf.Rvf.x_range in
  let width = x_hi -. x_lo in
  let lo = x_lo -. (1.5 *. width) and hi = x_hi +. (1.5 *. width) in
  let mid = 0.5 *. (lo +. hi) and ampl = 0.5 *. (hi -. lo) in
  (* the training sine's rate: quasi-static against the GHz dynamics *)
  let freq = 1e6 in
  let u t = mid -. (ampl *. cos (2.0 *. Float.pi *. freq *. t)) in
  let w = Hammerstein.Hmodel.simulate model ~u ~t_stop:(1.0 /. freq) ~dt:1e-9 in
  let ys = Signal.Waveform.values w in
  let nonfinite =
    Array.fold_left (fun k y -> if Float.is_finite y then k else k + 1) 0 ys
  in
  let y_peak = Array.fold_left (fun a y -> Float.max a (Float.abs y)) 0.0 ys in
  let dc_peak =
    Array.fold_left
      (fun a x ->
        Float.max a (Float.abs (Hammerstein.Hmodel.dc_output model ~x)))
      0.0
      (Signal.Grid.linspace lo hi 401)
  in
  [
    m "nonfinite_samples" (float_of_int nonfinite) 0.0;
    m "peak_over_dc_peak" (y_peak /. dc_peak) 1.25;
  ]

(* ---------------- the battery ---------------- *)

let run ?(quick = false) () =
  roundtrip_report := None;
  let points = if quick then 24 else 60 in
  [
    check_ac ~name:"rc-ac-closed-form" ~points (Ladder.rc ());
    check_ac ~name:"rlc-ac-closed-form" ~points (Ladder.rlc ());
    check_tft_vf ~name:"rc-tft-linear"
      ~points:(if quick then 16 else 30)
      ~snapshots:(if quick then 15 else 25)
      (Ladder.rc ());
    check_tft_vf ~name:"rlc-tft-vf"
      ~points:(if quick then 16 else 30)
      ~snapshots:(if quick then 15 else 25)
      (Ladder.rlc ());
    check_hammerstein_roundtrip ~quick ();
    check_hammerstein_transient ~quick ();
    check_kernel_parity ~quick ();
    check_pipeline ~quick ();
    check_sparse_parity ~quick ();
    check_large_ladder ~quick ();
  ]

(* ---------------- reporting ---------------- *)

let json ~quick verdicts =
  let metric_json mt =
    Minijson.Obj
      [
        ("name", Minijson.Str mt.metric);
        ("value", Minijson.Num mt.value);
        ("bound", Minijson.Num mt.bound);
        ("passed", Minijson.Bool (metric_passed mt));
      ]
  in
  let verdict_json v =
    Minijson.Obj
      (("name", Minijson.Str v.check)
       :: ("passed", Minijson.Bool (verdict_passed v))
       :: ("seconds", Minijson.Num v.seconds)
       :: (match v.error with
          | Some e -> [ ("error", Minijson.Str e) ]
          | None -> [])
      @ [ ("metrics", Minijson.Arr (List.map metric_json v.metrics)) ])
  in
  Minijson.emit
    (Minijson.Obj
       [
         ("schema_version", Minijson.Num 1.0);
         ("kind", Minijson.Str "oracle");
         ("quick", Minijson.Bool quick);
         ("passed", Minijson.Bool (all_passed verdicts));
         ("checks", Minijson.Arr (List.map verdict_json verdicts));
       ])

let summary verdicts =
  let buf = Buffer.create 512 in
  List.iter
    (fun v ->
      Printf.bprintf buf "%-4s %-24s %7.3f s"
        (if verdict_passed v then "ok" else "FAIL")
        v.check v.seconds;
      (match v.error with
      | Some e -> Printf.bprintf buf "  error: %s" e
      | None ->
          List.iter
            (fun mt ->
              Printf.bprintf buf "  %s %.2e%s" mt.metric mt.value
                (if metric_passed mt then "" else
                   Printf.sprintf " > %.0e" mt.bound))
            v.metrics);
      Buffer.add_char buf '\n')
    verdicts;
  Buffer.contents buf
