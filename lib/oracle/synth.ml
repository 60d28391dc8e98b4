(* Synthetic Hammerstein ground truth + the TFT dataset it induces. *)

type params = {
  freq_alpha : float;
  freq_beta : float;
  state_beta : float;
  state_alpha : float;
  r1 : float * float * float;
  r2 : float * float * float;
  g0 : float * float * float;
  y_anchor : float;
  x_lo : float;
  x_hi : float;
}

let default =
  {
    freq_alpha = -1.6e9;
    freq_beta = 2.0 *. Float.pi *. 1.0e9;
    state_beta = 0.9;
    state_alpha = 0.35;
    r1 = (0.8, -0.5, 1.6);
    r2 = (-0.4, 0.7, 0.9);
    g0 = (0.5, -0.9, 2.0);
    y_anchor = 0.8;
    x_lo = 0.4;
    x_hi = 1.4;
  }

let validate p =
  if p.freq_alpha >= 0.0 then invalid_arg "Synth: freq_alpha must be < 0";
  if p.freq_beta <= 0.0 then invalid_arg "Synth: freq_beta must be > 0";
  if p.state_alpha <= 0.0 then invalid_arg "Synth: state_alpha must be > 0";
  if p.x_hi <= p.x_lo then invalid_arg "Synth: empty state range"

let ratfn_of ?(scale = 1.0) p (c1, c2, const) =
  {
    Rvf.Ratfn.betas = [| p.state_beta |];
    alphas = [| p.state_alpha |];
    c1 = [| scale *. c1 |];
    c2 = [| scale *. c2 |];
    const = scale *. const;
    offset = 0.0;
  }

(* physical residues scale with their pole magnitude (the RC ladder's
   are ∝ 1/RC); keeping the dynamic part O(1) against the static part
   also keeps the extractor's H − H(0) subtraction cancellation-free *)
let residue_scale p = Complex.norm { Complex.re = p.freq_alpha; im = p.freq_beta }

let freq_poles p =
  [|
    { Complex.re = p.freq_alpha; im = p.freq_beta };
    { Complex.re = p.freq_alpha; im = -.p.freq_beta };
  |]

let state_poles p =
  [|
    { Complex.re = p.state_beta; im = p.state_alpha };
    { Complex.re = p.state_beta; im = -.p.state_alpha };
  |]

let model_of p =
  validate p;
  (* anchor the residue stages at the sweep start and fold the whole
     anchor into the static path, exactly as the extractor does; the
     models are behaviourally identical for any anchor choice *)
  let scale = residue_scale p in
  let stage_ratfns =
    [|
      Rvf.Ratfn.set_value (ratfn_of ~scale p p.r1) ~at:p.x_lo ~value:0.0;
      Rvf.Ratfn.set_value (ratfn_of ~scale p p.r2) ~at:p.x_lo ~value:0.0;
    |]
  in
  let static_path =
    Rvf.Ratfn.to_static_fn
      (Rvf.Ratfn.set_value (ratfn_of p p.g0) ~at:p.x_lo ~value:p.y_anchor)
  in
  Rvf.Assemble.hammerstein ~name:"synth-oracle" ~freq_poles:(freq_poles p)
    ~stage:(fun k -> Rvf.Ratfn.to_static_fn stage_ratfns.(k))
    ~static_path

let freq_grid ?(freqs = 30) p =
  let f_center = p.freq_beta /. (2.0 *. Float.pi) in
  Signal.Grid.frequencies_hz ~f_min:(f_center /. 1e2) ~f_max:(f_center *. 1e2)
    ~points:freqs

let dataset_of ?(samples = 40) ?freqs p =
  validate p;
  if samples < 4 then invalid_arg "Synth.dataset_of: need >= 4 samples";
  let model = model_of p in
  let freqs_hz = freq_grid ?freqs p in
  let xs = Signal.Grid.linspace p.x_lo p.x_hi samples in
  let mk_sample k x =
    let h =
      Array.map
        (fun f ->
          let s = Signal.Grid.s_of_hz f in
          Linalg.Cmat.init 1 1 (fun _ _ -> Hammerstein.Hmodel.transfer model ~x ~s))
        freqs_hz
    in
    let h0 =
      Linalg.Cmat.init 1 1 (fun _ _ ->
          { Complex.re = Hammerstein.Hmodel.dc_gain model ~x; im = 0.0 })
    in
    {
      Tft.Dataset.time = float_of_int k *. 1e-9;
      x = [| x |];
      u = [| x |];
      y = [| Hammerstein.Hmodel.dc_output model ~x |];
      h;
      h0;
    }
  in
  {
    Tft.Dataset.freqs_hz;
    samples = Array.mapi mk_sample xs;
    n_inputs = 1;
    n_outputs = 1;
  }

type report = {
  freq_pole_rel_err : float;
  state_pole_rel_err : float;
  surface_rel_rms : float;
  dc_rel_max_err : float;
  transient_nrmse : float;
  result : Rvf.result;
}

let roundtrip ?(config = Rvf.default_config) ?samples ?freqs p =
  let truth = model_of p in
  let dataset = dataset_of ?samples ?freqs p in
  let result = Rvf.extract ~config ~dataset ~input:0 ~output:0 () in
  let extracted = result.Rvf.model in
  let freq_pole_rel_err =
    Ladder.max_rel_pole_error ~exact:(freq_poles p)
      ~fitted:result.Rvf.freq_model.Vf.Model.poles
  in
  let state_pole_rel_err =
    Ladder.max_rel_pole_error ~exact:(state_poles p)
      ~fitted:result.Rvf.residue_model.Vf.Model.poles
  in
  (* dense behavioural comparison over the full (state × frequency) grid *)
  let xs = Signal.Grid.linspace p.x_lo p.x_hi 41 in
  let ss = Array.map Signal.Grid.s_of_hz (freq_grid ?freqs p) in
  let acc = ref 0.0 and scale = ref 1e-300 and count = ref 0 in
  Array.iter
    (fun x ->
      Array.iter
        (fun s ->
          let t_true = Hammerstein.Hmodel.transfer truth ~x ~s in
          let t_fit = Hammerstein.Hmodel.transfer extracted ~x ~s in
          acc := !acc +. Complex.norm2 (Complex.sub t_true t_fit);
          scale := Float.max !scale (Complex.norm t_true);
          incr count)
        ss)
    xs;
  let surface_rel_rms = sqrt (!acc /. float_of_int !count) /. !scale in
  let dc_true = Array.map (fun x -> Hammerstein.Hmodel.dc_output truth ~x) xs in
  let dc_fit =
    Array.map (fun x -> Hammerstein.Hmodel.dc_output extracted ~x) xs
  in
  let dc_span =
    Array.fold_left Float.max neg_infinity dc_true
    -. Array.fold_left Float.min infinity dc_true
  in
  let dc_rel_max_err =
    Signal.Metrics.max_abs_err dc_true dc_fit /. Float.max dc_span 1e-300
  in
  (* the paper's training excitation: one period of a large sine
     spanning the state range, slow against the model dynamics *)
  let mid = 0.5 *. (p.x_lo +. p.x_hi) and ampl = 0.5 *. (p.x_hi -. p.x_lo) in
  let f_train = p.freq_beta /. (2.0 *. Float.pi) /. 50.0 in
  let u t = mid +. (ampl *. sin (2.0 *. Float.pi *. f_train *. t)) in
  let t_stop = 1.0 /. f_train in
  let dt = t_stop /. 2000.0 in
  let w_true = Hammerstein.Hmodel.simulate truth ~u ~t_stop ~dt in
  let w_fit = Hammerstein.Hmodel.simulate extracted ~u ~t_stop ~dt in
  let transient_nrmse = Signal.Waveform.nrmse w_true w_fit in
  {
    freq_pole_rel_err;
    state_pole_rel_err;
    surface_rel_rms;
    dc_rel_max_err;
    transient_nrmse;
    result;
  }
