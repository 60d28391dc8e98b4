(* Seeded random structure builders + the QCheck arbitrary driving them. *)

type seeded = { seed : int; size : int }

let arb ?(min_size = 1) ?(max_size = 4) () =
  let print s = Printf.sprintf "{seed=%d; size=%d}" s.seed s.size in
  let shrink s yield =
    if s.size > min_size then yield { s with size = s.size - 1 };
    QCheck.Shrink.int s.seed (fun seed -> yield { s with seed })
  in
  let gen =
    QCheck.Gen.map2
      (fun seed size -> { seed; size })
      (QCheck.Gen.int_bound 1_000_000)
      (QCheck.Gen.int_range min_size max_size)
  in
  QCheck.make ~print ~shrink gen

let rand_state s = Random.State.make [| s.seed; s.size; 0x9e3779b9 |]

let uniform st lo hi = lo +. ((hi -. lo) *. Random.State.float st 1.0)
let log_uniform st lo hi = lo *. ((hi /. lo) ** Random.State.float st 1.0)

(* ---------------- stable pole sets & rationals ---------------- *)

let w_lo = 1e4
let w_hi = 1e7

(* `size` units, each "pair" or "two singles": always an even slot
   count, magnitudes log-spaced with jitter so units never collide *)
let units_of s =
  let st = rand_state s in
  let n = s.size in
  Array.init n (fun t ->
      let jitter = uniform st 0.15 0.85 in
      let w =
        w_lo *. ((w_hi /. w_lo) ** ((float_of_int t +. jitter) /. float_of_int n))
      in
      if Random.State.float st 1.0 < 0.3 then `Singles (w, uniform st 1.3 2.5)
      else `Pair (w, uniform st 0.2 1.2))

let pole_set_of_units units =
  Array.concat
    (Array.to_list
       (Array.map
          (function
            | `Singles (w, ratio) ->
                (* two distinct real poles sharing the unit's decade *)
                [|
                  { Complex.re = -.w; im = 0.0 };
                  { Complex.re = -.w *. ratio; im = 0.0 };
                |]
            | `Pair (w, phi) ->
                (* damping angle bounded away from the imaginary axis *)
                [|
                  { Complex.re = -.w *. sin phi; im = w *. cos phi };
                  { Complex.re = -.w *. sin phi; im = -.w *. cos phi };
                |])
          units))

let pole_set s = pole_set_of_units (units_of s)

let rational s =
  (* salt the stream so residue draws are independent of the unit draws *)
  let st = Random.State.make [| s.seed; s.size; 0x51ed270b |] in
  let units = units_of s in
  let poles = pole_set_of_units units in
  let n = Array.length poles in
  let residues = Array.make n Complex.zero in
  let slot = ref 0 in
  Array.iter
    (function
      | `Singles (w, _) ->
          residues.(!slot) <-
            { Complex.re = w *. uniform st 0.5 2.0 *. (if Random.State.bool st then 1.0 else -1.0);
              im = 0.0 };
          residues.(!slot + 1) <-
            { Complex.re = w *. uniform st 0.5 2.0 *. (if Random.State.bool st then 1.0 else -1.0);
              im = 0.0 };
          slot := !slot + 2
      | `Pair (w, _) ->
          let re = w *. uniform st (-1.0) 1.0 and im = w *. uniform st 0.3 1.0 in
          residues.(!slot) <- { Complex.re = re; im };
          residues.(!slot + 1) <- { Complex.re = re; im = -.im };
          slot := !slot + 2)
    units;
  { Ladder.poles; residues }

let grid_hz = Signal.Grid.frequencies_hz ~f_min:1e2 ~f_max:1e7 ~points:80

(* ---------------- random passive RC ladders ---------------- *)

let rc_ladder s =
  let st = rand_state s in
  Ladder.rc ~stages:s.size ~r:(log_uniform st 1e2 1e4)
    ~c:(log_uniform st 1e-10 1e-8) ()

(* ---------------- random sparse-tier circuits ---------------- *)

(* mesh/grid shapes grow with `size` so shrinking walks toward small
   circuits; element values share the ladder's decade ranges *)
let mesh_shape s =
  let st = Random.State.make [| s.seed; s.size; 0x6d657368 |] in
  let rows = 2 + s.size + Random.State.int st 2 in
  let cols = 2 + s.size + Random.State.int st 2 in
  (rows, cols)

let rc_mesh s =
  let st = rand_state s in
  let rows, cols = mesh_shape s in
  let netlist =
    Circuits.Library.rc_mesh ~rows ~cols ~r:(log_uniform st 1e2 1e4)
      ~c:(log_uniform st 1e-10 1e-8) ()
  in
  (netlist, Circuits.Library.mesh_input, Circuits.Library.mesh_output ~rows ~cols)

let rc_grid s =
  let st = rand_state s in
  let rows, cols = mesh_shape s in
  let netlist =
    Circuits.Library.rc_grid ~rows ~cols ~r:(log_uniform st 1e2 1e4)
      ~c:(log_uniform st 1e-10 1e-8)
      ~diode_every:(5 + (s.seed mod 3))
      ()
  in
  (netlist, Circuits.Library.grid_input, Circuits.Library.grid_output ~rows ~cols)

(* ---------------- state-space residue trajectories ---------------- *)

let state_pole_pairs s =
  let st = rand_state s in
  let n = 1 + (s.size mod 2) in
  Array.init n (fun k ->
      let beta = uniform st 0.1 0.9 +. (float_of_int k *. 0.05) in
      let alpha = uniform st 0.08 0.45 in
      (beta, alpha))

let residue_traces ?(traces = 4) s =
  let st = rand_state s in
  let pairs = state_pole_pairs s in
  let xs = Signal.Grid.linspace 0.0 1.0 40 in
  let data =
    Array.init traces (fun _ ->
        (* c2 is drawn before c1 for each pair, so every seed keeps
           reproducing the same case *)
        let coeffs =
          Array.map
            (fun _ ->
              let c2 = uniform st (-2.0) 2.0 in
              (uniform st (-2.0) 2.0, c2))
            pairs
        in
        let rf =
          {
            Rvf.Ratfn.betas = Array.map fst pairs;
            alphas = Array.map snd pairs;
            c1 = Array.map fst coeffs;
            c2 = Array.map snd coeffs;
            const = uniform st (-1.0) 1.0;
            offset = 0.0;
          }
        in
        Array.map (fun x -> { Complex.re = Rvf.Ratfn.deriv rf x; im = 0.0 }) xs)
  in
  (xs, data)

(* ---------------- synthetic Hammerstein parameters ---------------- *)

(* coefficient bounded away from zero so no residue trace degenerates *)
let coeff st = uniform st 0.3 2.0 *. if Random.State.bool st then 1.0 else -1.0

let synth_params s =
  let st = rand_state s in
  let freq_beta = 2.0 *. Float.pi *. log_uniform st 3e8 3e9 in
  {
    Synth.freq_alpha = -.(uniform st 0.15 0.6) *. freq_beta;
    freq_beta;
    state_beta = uniform st 0.6 1.2;
    state_alpha = uniform st 0.1 0.5;
    r1 = (coeff st, coeff st, coeff st);
    r2 = (coeff st, coeff st, coeff st);
    g0 = (coeff st, coeff st, uniform st 1.5 2.5);
    y_anchor = uniform st (-0.5) 1.0;
    x_lo = 0.4;
    x_hi = 1.4;
  }
