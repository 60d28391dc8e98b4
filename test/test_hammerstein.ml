(* Tests for the Hammerstein model container, its frozen-state transfer
   function, time-domain simulation against closed-form LTI responses,
   and the exporters. *)

let check_close tol = Alcotest.(check (float tol))

let linear_static gain =
  Hammerstein.Static_fn.make ~formula:(Printf.sprintf "%g*x" gain)
    ~eval:(fun x -> gain *. x)
    ~deriv:(fun _ -> gain)
    ()

(* ---------------- Static_fn ---------------- *)

let test_static_fn_algebra () =
  let f = linear_static 2.0 and g = linear_static 3.0 in
  let s = Hammerstein.Static_fn.add f g in
  check_close 1e-12 "add eval" 5.0 (s.Hammerstein.Static_fn.eval 1.0);
  let d = Hammerstein.Static_fn.sub f g in
  check_close 1e-12 "sub eval" (-1.0) (d.Hammerstein.Static_fn.eval 1.0);
  let k = Hammerstein.Static_fn.scale 4.0 f in
  check_close 1e-12 "scale deriv" 8.0 (k.Hammerstein.Static_fn.deriv 0.0);
  Alcotest.(check bool) "analytic propagates" true s.Hammerstein.Static_fn.analytic

let test_static_fn_numeric_table () =
  let xs = Signal.Grid.linspace 0.0 1.0 101 in
  let rs = Array.map (fun x -> 2.0 *. x) xs in
  let f = Hammerstein.Static_fn.of_samples_numeric ~xs ~rs in
  Alcotest.(check bool) "not analytic" false f.Hammerstein.Static_fn.analytic;
  (* integral of 2x from 0 is x^2 *)
  check_close 1e-3 "integral" 0.25 (f.Hammerstein.Static_fn.eval 0.5);
  check_close 1e-9 "deriv interpolates" 1.0 (f.Hammerstein.Static_fn.deriv 0.5);
  (* linear extrapolation beyond the table *)
  check_close 1e-3 "extrapolated" (1.0 +. (2.0 *. 0.5))
    (f.Hammerstein.Static_fn.eval 1.5)

(* ---------------- Hmodel structure ---------------- *)

let first_order_model ~a ~gain =
  Hammerstein.Hmodel.make
    ~branches:[| Hammerstein.Hmodel.First_order { a; f = linear_static gain } |]
    ~static_path:Hammerstein.Static_fn.zero ()

let test_hmodel_order () =
  let m = first_order_model ~a:(-1e6) ~gain:1e6 in
  Alcotest.(check int) "order 1" 1 (Hammerstein.Hmodel.order m);
  let m2 =
    Hammerstein.Hmodel.make
      ~branches:
        [|
          Hammerstein.Hmodel.Second_order
            {
              alpha = -1e6;
              beta = 2e6;
              f1 = linear_static 1.0;
              f2 = linear_static 0.0;
            };
          Hammerstein.Hmodel.First_order { a = -3e6; f = linear_static 1.0 };
        |]
      ~static_path:Hammerstein.Static_fn.zero ()
  in
  Alcotest.(check int) "order 3" 3 (Hammerstein.Hmodel.order m2)

let test_hmodel_rejects_unstable () =
  Alcotest.(check bool) "unstable real pole rejected" true
    (match first_order_model ~a:1e6 ~gain:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_hmodel_analytic_flag () =
  let numeric =
    Hammerstein.Static_fn.of_samples_numeric
      ~xs:(Signal.Grid.linspace 0.0 1.0 10)
      ~rs:(Array.make 10 1.0)
  in
  let m =
    Hammerstein.Hmodel.make
      ~branches:[| Hammerstein.Hmodel.First_order { a = -1.0; f = numeric } |]
      ~static_path:Hammerstein.Static_fn.zero ()
  in
  Alcotest.(check bool) "numeric stage breaks analyticity" false
    (Hammerstein.Hmodel.analytic m)

(* ---------------- transfer ---------------- *)

let test_transfer_first_order () =
  (* branch r/(s-a) with r = gain (since f' = gain) *)
  let a = -1e6 and gain = 2e6 in
  let m = first_order_model ~a ~gain in
  let s = Signal.Grid.s_of_hz 1e5 in
  let expected = Complex.div { Complex.re = gain; im = 0.0 } (Complex.sub s { Complex.re = a; im = 0.0 }) in
  let t = Hammerstein.Hmodel.transfer m ~x:0.0 ~s in
  Alcotest.(check bool) "first-order transfer" true
    (Complex.norm (Complex.sub t expected) < 1e-9)

let test_transfer_second_order_matches_pair () =
  (* the input-shifted 2x2 block realizes r/(s-a) + conj both *)
  let alpha = -2e6 and beta = 8e6 in
  let c = 1.5e6 and d = -0.5e6 in
  (* f1' = c + d, f2' = c - d *)
  let m =
    Hammerstein.Hmodel.make
      ~branches:
        [|
          Hammerstein.Hmodel.Second_order
            {
              alpha;
              beta;
              f1 = linear_static (c +. d);
              f2 = linear_static (c -. d);
            };
        |]
      ~static_path:Hammerstein.Static_fn.zero ()
  in
  let a = { Complex.re = alpha; im = beta } in
  let r = { Complex.re = c; im = d } in
  let s = Signal.Grid.s_of_hz 3e5 in
  let expected =
    Complex.add
      (Complex.div r (Complex.sub s a))
      (Complex.div (Complex.conj r) (Complex.sub s (Complex.conj a)))
  in
  let t = Hammerstein.Hmodel.transfer m ~x:0.0 ~s in
  Alcotest.(check bool) "pair transfer" true
    (Complex.norm (Complex.sub t expected) < 1e-6)

let test_dc_gain_includes_static_path () =
  let m =
    Hammerstein.Hmodel.make ~branches:[||] ~static_path:(linear_static 2.5) ()
  in
  check_close 1e-12 "static dc gain" 2.5 (Hammerstein.Hmodel.dc_gain m ~x:0.3)

(* ---------------- simulate ---------------- *)

let test_simulate_first_order_step () =
  (* linear first-order lowpass: y' = a y + (-a) u, H(0) = 1 *)
  let a = -1e7 in
  let m = first_order_model ~a ~gain:(-.a) in
  let u t = if t >= 1e-8 then 1.0 else 0.0 in
  let w = Hammerstein.Hmodel.simulate m ~u ~t_stop:1e-6 ~dt:5e-10 in
  (* analytic: y(t) = 1 - exp(a (t - 1e-8)) after the step *)
  List.iter
    (fun t ->
      let expected = 1.0 -. exp (a *. (t -. 1e-8)) in
      check_close 2e-3 (Printf.sprintf "step response at %g" t) expected
        (Signal.Waveform.value_at w t))
    [ 5e-8; 1e-7; 3e-7; 9e-7 ]

let test_simulate_starts_at_steady_state () =
  let m = first_order_model ~a:(-1e7) ~gain:1e7 in
  let u _ = 0.7 in
  let w = Hammerstein.Hmodel.simulate m ~u ~t_stop:1e-7 ~dt:1e-9 in
  (* constant input: output stays at DC steady state 0.7 *)
  Array.iter
    (fun v -> check_close 1e-9 "steady" 0.7 v)
    (Signal.Waveform.values w)

let test_simulate_second_order_sine_gain () =
  (* drive the 2x2 block with a sine and compare the steady-state
     amplitude with |T(j w0)| *)
  let alpha = -5e6 and beta = 3e7 in
  let m =
    Hammerstein.Hmodel.make
      ~branches:
        [|
          Hammerstein.Hmodel.Second_order
            {
              alpha;
              beta;
              f1 = linear_static 3e7;
              f2 = linear_static 1e7;
            };
        |]
      ~static_path:Hammerstein.Static_fn.zero ()
  in
  let f0 = 2e6 in
  let u t = sin (2.0 *. Float.pi *. f0 *. t) in
  let w = Hammerstein.Hmodel.simulate m ~u ~t_stop:4e-6 ~dt:2.5e-10 in
  (* measure amplitude over the last period *)
  let t0 = 3.5e-6 in
  let samples =
    Array.init 400 (fun k -> Signal.Waveform.value_at w (t0 +. (float_of_int k *. 1.25e-9)))
  in
  let amp =
    0.5
    *. (Array.fold_left Float.max neg_infinity samples
       -. Array.fold_left Float.min infinity samples)
  in
  let expected =
    Complex.norm (Hammerstein.Hmodel.transfer m ~x:0.0 ~s:(Signal.Grid.s_of_hz f0))
  in
  check_close (0.01 *. expected) "sine steady-state gain" expected amp

let test_simulate_linearized_matches_transfer_small_signal () =
  (* nonlinear static stage: a small sine around x0 sees gain |T(x0, jw)| *)
  let f =
    Hammerstein.Static_fn.make ~formula:"tanh" ~eval:(fun x -> 1e7 *. tanh x)
      ~deriv:(fun x -> 1e7 /. (cosh x ** 2.0))
      ()
  in
  let m =
    Hammerstein.Hmodel.make
      ~branches:[| Hammerstein.Hmodel.First_order { a = -1e7; f } |]
      ~static_path:Hammerstein.Static_fn.zero ()
  in
  let x0 = 0.4 and ampl = 1e-3 and f0 = 1e6 in
  let u t = x0 +. (ampl *. sin (2.0 *. Float.pi *. f0 *. t)) in
  let w = Hammerstein.Hmodel.simulate m ~u ~t_stop:5e-6 ~dt:1e-9 in
  let t0 = 4e-6 in
  let samples =
    Array.init 1000 (fun k -> Signal.Waveform.value_at w (t0 +. (float_of_int k *. 1e-9)))
  in
  let amp =
    0.5
    *. (Array.fold_left Float.max neg_infinity samples
       -. Array.fold_left Float.min infinity samples)
  in
  let expected =
    ampl
    *. Complex.norm (Hammerstein.Hmodel.transfer m ~x:x0 ~s:(Signal.Grid.s_of_hz f0))
  in
  check_close (0.02 *. expected) "small-signal consistency" expected amp

let test_dc_output_matches_simulation () =
  (* dc_output is exactly where simulate settles for a constant input *)
  let f =
    Hammerstein.Static_fn.make ~formula:"nl" ~eval:(fun x -> 1e6 *. tanh x)
      ~deriv:(fun x -> 1e6 /. (cosh x ** 2.0))
      ()
  in
  let m =
    Hammerstein.Hmodel.make
      ~branches:
        [|
          Hammerstein.Hmodel.First_order { a = -2e6; f };
          Hammerstein.Hmodel.Second_order
            { alpha = -1e6; beta = 3e6; f1 = f; f2 = Hammerstein.Static_fn.scale 0.5 f };
        |]
      ~static_path:(Hammerstein.Static_fn.scale 1e-6 f) ()
  in
  List.iter
    (fun x0 ->
      let w = Hammerstein.Hmodel.simulate m ~u:(fun _ -> x0) ~t_stop:1e-5 ~dt:1e-8 in
      let final = Signal.Waveform.value_at w 1e-5 in
      check_close 1e-6 (Printf.sprintf "settles at dc_output(%g)" x0)
        (Hammerstein.Hmodel.dc_output m ~x:x0) final)
    [ -0.5; 0.0; 0.8 ]

(* ---------------- export / equations ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan k = k + nn <= nh && (String.sub hay k nn = needle || scan (k + 1)) in
  nn = 0 || scan 0

let test_equations_text () =
  let m = first_order_model ~a:(-1e6) ~gain:2.0 in
  let text = Hammerstein.Hmodel.equations m in
  Alcotest.(check bool) "has ODE" true (contains text "d/dt y1");
  Alcotest.(check bool) "has static path" true (contains text "F0(x)")

let test_verilog_a_export () =
  let m = first_order_model ~a:(-1e6) ~gain:2.0 in
  let va = Hammerstein.Export.verilog_a m in
  Alcotest.(check bool) "module header" true (contains va "module tft_rvf_model");
  Alcotest.(check bool) "ddt statements" true (contains va "ddt(V(y1))");
  Alcotest.(check bool) "contribution" true (contains va "V(out) <+")

let test_matlab_export () =
  let m = first_order_model ~a:(-1e6) ~gain:2.0 in
  let ml = Hammerstein.Export.matlab m in
  Alcotest.(check bool) "function header" true (contains ml "function");
  Alcotest.(check bool) "rhs" true (contains ml "dydt(1)")

(* A fixed hand-built closed-form model whose equation text and both
   exports are pinned byte for byte, so a change to how stages are
   represented or evaluated cannot silently change the exported text. *)
let pinned_model () =
  let r betas alphas c1 c2 ~const ~offset =
    { Rvf.Ratfn.betas; alphas; c1; c2; const; offset }
  in
  let ra =
    r [| 0.8; 1.2 |] [| 0.3; 0.1 |] [| 1.5; -0.7 |] [| -0.4; 0.9 |]
      ~const:0.25 ~offset:(-0.125)
  in
  let rb =
    r [| 0.8; 1.2 |] [| 0.3; 0.1 |] [| 0.0; 3.25 |] [| 2.5; 0.0 |] ~const:0.0
      ~offset:0.0
  in
  let rc = r [| 0.6 |] [| 0.45 |] [| -1.1 |] [| 0.3 |] ~const:(-2.0) ~offset:0.5 in
  let rs = r [||] [||] [||] [||] ~const:1.5 ~offset:0.0 in
  let stages = [| ra; rb; rc |] in
  Rvf.Assemble.hammerstein ~name:"pinned"
    ~freq_poles:
      [|
        { Complex.re = -1e9; im = 6e9 };
        { Complex.re = -1e9; im = -6e9 };
        { Complex.re = -3e8; im = 0.0 };
      |]
    ~stage:(fun k -> Rvf.Ratfn.to_static_fn stages.(k))
    ~static_path:
      (Hammerstein.Static_fn.add (Rvf.Ratfn.to_static_fn rs)
         (Rvf.Ratfn.to_static_fn (Rvf.Ratfn.set_value rc ~at:0.9 ~value:0.2)))

let pinned_equations = {|// model: pinned (order 3)
// static path
y0(t) = F0(x(t)),  F0(x) = (0 + 1.5*x) + (1.00058 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45))

// branch 0 (complex pole pair -1.000000e+09 +/- j6.000000e+09)
d/dt y1a = -1.000000e+09*y1a + 6.000000e+09*y1b + f1a(x(t))
d/dt y1b = -6.000000e+09*y1a + -1.000000e+09*y1b + f1b(x(t))
f1a(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) + (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))
f1b(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) - (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))

// branch 1 (real pole)
d/dt y2 = -3.000000e+08 * y2 + f2(x(t))
f2(x) = 0.5 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45)

y(t) = y0(t) + y1a + y1b + y2
|}

let pinned_verilog_a = {|// generated from model "pinned"
`include "disciplines.vams"

module tft_rvf_model(in, out);
  inout in, out;
  electrical in, out;
  electrical y1a;
  electrical y1b;
  electrical y2;

  analog begin
    // x(t) = u(t): state estimator of dimension 1
    // branch 1: f1(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) + (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))
    //            f2(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) - (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))
    ddt(V(y1a)) <+ -1.000000000e+09*V(y1a) + 6.000000000e+09*V(y1b) + f1a(V(in));
    ddt(V(y1b)) <+ -6.000000000e+09*V(y1a) + -1.000000000e+09*V(y1b) + f1b(V(in));
    // branch 2: f(x) = 0.5 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45)
    ddt(V(y2)) <+ -3.000000000e+08*V(y2) + (f2(V(in)));
    V(out) <+ (F0(V(in))) + V(y1a) + V(y1b) + V(y2);
    // F0(x) = (0 + 1.5*x) + (1.00058 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45))
  end
endmodule
|}

let pinned_matlab = {|function [dydt, yout] = tft_rvf_rhs(t, y, u)
% generated from model 'pinned'
x = u(t);
dydt = zeros(3, 1);
% f1a(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) + (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))
% f1b(x) = (-0.125 + 0.25*x + 1.5*ln((x-0.8)^2 + 0.09) + 0.8*atan((x-0.8)/0.3) + -0.7*ln((x-1.2)^2 + 0.01) + -1.8*atan((x-1.2)/0.1)) - (-5*atan((x-0.8)/0.3) + 3.25*ln((x-1.2)^2 + 0.01))
dydt(1) = -1.000000000e+09*y(1) + 6.000000000e+09*y(2) + f1a(x);
dydt(2) = -6.000000000e+09*y(1) + -1.000000000e+09*y(2) + f1b(x);
% f2(x) = 0.5 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45)
dydt(3) = -3.000000000e+08*y(3) + f2(x);
% F0(x) = (0 + 1.5*x) + (1.00058 + -2*x + -1.1*ln((x-0.6)^2 + 0.2025) + -0.6*atan((x-0.6)/0.45))
yout = F0(x) + sum(y);
end
|}

let test_exports_pinned () =
  let m = pinned_model () in
  Alcotest.(check string) "equations" pinned_equations
    (Hammerstein.Hmodel.equations m);
  Alcotest.(check string) "verilog-a" pinned_verilog_a
    (Hammerstein.Export.verilog_a m);
  Alcotest.(check string) "matlab" pinned_matlab (Hammerstein.Export.matlab m)

(* ---------------- simulation plan ---------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_waveform w_a w_b =
  bits_equal (Signal.Waveform.times w_a) (Signal.Waveform.times w_b)
  && bits_equal (Signal.Waveform.values w_a) (Signal.Waveform.values w_b)

(* The next float after [x]: a basis differing from another in one bit. *)
let next_float x = Int64.float_of_bits (Int64.succ (Int64.bits_of_float x))

(* A random model mixing first- and second-order branches with
   closed-form stages over 1–3 pole bases, opaque closures, numeric
   tables, [scale] and nested [add]/[sub]. Each closed-form leaf draws
   its basis as the original arrays, a fresh copy (same bits: must be
   shared) or a copy one bit off in a beta or an alpha (must not be).
   Returns the model and the number of basis poles the plan should
   evaluate per step. *)
let random_model st =
  let uniform lo hi = lo +. Random.State.float st (hi -. lo) in
  let bases =
    Array.init
      (1 + Random.State.int st 3)
      (fun _ ->
        let n = 1 + Random.State.int st 3 in
        ( Array.init n (fun k -> uniform 0.3 1.5 +. (0.1 *. float_of_int k)),
          Array.init n (fun _ -> uniform 0.05 0.5) ))
  in
  (* keys of the distinct bases reachable through closed-form leaves *)
  let used = Hashtbl.create 8 in
  let leaf () =
    let i = Random.State.int st (Array.length bases) in
    let betas, alphas = bases.(i) in
    let variant = Random.State.int st 4 in
    let betas, alphas =
      match variant with
      | 0 -> (betas, alphas)
      | 1 -> (Array.copy betas, Array.copy alphas)
      | 2 ->
          let b = Array.copy betas in
          b.(0) <- next_float b.(0);
          (b, alphas)
      | _ ->
          let a = Array.copy alphas in
          a.(Array.length a - 1) <- next_float a.(Array.length a - 1);
          (betas, a)
    in
    let n = Array.length betas in
    let e =
      {
        Hammerstein.Static_fn.betas;
        alphas;
        c1 = Array.init n (fun _ -> uniform (-2.0) 2.0);
        c2 = Array.init n (fun _ -> uniform (-2.0) 2.0);
        const = uniform (-1.0) 1.0;
        offset = uniform (-1.0) 1.0;
      }
    in
    let key = (i, if variant = 1 then 0 else variant) in
    (Hammerstein.Static_fn.of_expansion e, [ (key, n) ])
  in
  let rec stage depth =
    match Random.State.int st (if depth = 0 then 4 else 7) with
    | 0 | 1 -> leaf ()
    | 2 ->
        let k = uniform 0.5 2.0 in
        (linear_static k, [])
    | 3 ->
        let xs = Signal.Grid.linspace 0.0 2.0 9 in
        let w = uniform (-1.0) 1.0 in
        ( Hammerstein.Static_fn.of_samples_numeric ~xs
            ~rs:(Array.map (fun x -> sin (w *. x)) xs),
          [] )
    | 4 ->
        (* scale is opaque: its operand's bases stay inside the closure *)
        let f, _ = stage (depth - 1) in
        (Hammerstein.Static_fn.scale (uniform (-2.0) 2.0) f, [])
    | 5 ->
        let a, ka = stage (depth - 1) in
        let b, kb = stage (depth - 1) in
        (Hammerstein.Static_fn.add a b, ka @ kb)
    | _ ->
        let a, ka = stage (depth - 1) in
        let b, kb = stage (depth - 1) in
        (Hammerstein.Static_fn.sub a b, ka @ kb)
  in
  let note keys = List.iter (fun (key, n) -> Hashtbl.replace used key n) keys in
  let stage () =
    let f, keys = stage 2 in
    note keys;
    f
  in
  let branches =
    Array.init (Random.State.int st 5) (fun _ ->
        if Random.State.bool st then
          Hammerstein.Hmodel.First_order { a = -.uniform 1e8 1e10; f = stage () }
        else
          let f1, f2 =
            if Random.State.bool st then begin
              (* the extractor's eq. (14) shape: fa, fb shared by f1, f2 *)
              let fa = stage () and fb = stage () in
              (Hammerstein.Static_fn.add fa fb, Hammerstein.Static_fn.sub fa fb)
            end
            else (stage (), stage ())
          in
          Hammerstein.Hmodel.Second_order
            { alpha = -.uniform 1e8 5e9; beta = uniform 1e8 2e10; f1; f2 })
  in
  let model =
    Hammerstein.Hmodel.make ~branches ~static_path:(stage ()) ()
  in
  (model, Hashtbl.fold (fun _ n acc -> acc + n) used 0)

let prop_plan_matches_reference =
  QCheck.Test.make ~count:200 ~name:"simulate plan is bitwise the closure loop"
    (Oracle.Gen.arb ())
    (fun s ->
      let st = Oracle.Gen.rand_state s in
      let model, expected_poles = random_model st in
      let u =
        Circuit.Netlist.wave_to_source
          (Circuits.Buffer.bit_wave ~seed:(1 + s.Oracle.Gen.seed) ~length:8 ())
      in
      let t_stop = 8.0 /. 2.5e9 in
      let dt = t_stop /. 160.0 in
      let got = Hammerstein.Hmodel.simulate model ~u ~t_stop ~dt in
      let want = Oracle.Hmodel_ref.simulate model ~u ~t_stop ~dt in
      if not (same_waveform got want) then
        QCheck.Test.fail_report "waveform bits differ from the reference";
      let poles = Hammerstein.Hmodel.basis_poles model in
      if poles <> expected_poles then
        QCheck.Test.fail_reportf "plan evaluates %d basis poles, expected %d"
          poles expected_poles;
      true)

(* a closed-form model with [branches] second-order branches in the
   extractor's shape over one [poles]-pair basis *)
let closed_form_model ~branches ~poles =
  let st = Random.State.make [| branches; poles |] in
  let uniform lo hi = lo +. Random.State.float st (hi -. lo) in
  let betas = Array.init poles (fun k -> 0.4 +. (0.2 *. float_of_int k)) in
  let alphas = Array.init poles (fun _ -> uniform 0.1 0.4) in
  let stage () =
    Rvf.Ratfn.to_static_fn
      {
        Rvf.Ratfn.betas;
        alphas;
        c1 = Array.init poles (fun _ -> uniform (-1.0) 1.0);
        c2 = Array.init poles (fun _ -> uniform (-1.0) 1.0);
        const = uniform (-1.0) 1.0;
        offset = 0.0;
      }
  in
  Hammerstein.Hmodel.make
    ~branches:
      (Array.init branches (fun k ->
           let fa = stage () and fb = stage () in
           Hammerstein.Hmodel.Second_order
             {
               alpha = -1e9 *. float_of_int (k + 1);
               beta = 3e9;
               f1 = Hammerstein.Static_fn.add fa fb;
               f2 = Hammerstein.Static_fn.sub fa fb;
             }))
    ~static_path:(stage ()) ()

let test_simulate_step_allocation () =
  (* per-step minor words from the difference of two run lengths, so
     the per-call plan and scratch cancel out *)
  let words model ~steps =
    let u _ = 0.9 in
    let dt = 1e-11 in
    let t_stop = float_of_int steps *. dt in
    ignore (Hammerstein.Hmodel.simulate model ~u ~t_stop ~dt);
    let w0 = Gc.minor_words () in
    ignore (Hammerstein.Hmodel.simulate model ~u ~t_stop ~dt);
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (branches, poles) ->
      let m = closed_form_model ~branches ~poles in
      let per_step =
        (words m ~steps:3000 -. words m ~steps:1000) /. 2000.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d branches x %d poles: %.2f words/step <= 2"
           branches poles per_step)
        true (per_step <= 2.0))
    [ (1, 1); (4, 3); (11, 11) ]

let test_simulate_reentrant_across_domains () =
  let m = closed_form_model ~branches:6 ~poles:5 in
  let run seed =
    Hammerstein.Hmodel.simulate m
      ~u:(Circuit.Netlist.wave_to_source (Circuits.Buffer.bit_wave ~seed ()))
      ~t_stop:(32.0 /. 2.5e9) ~dt:(32.0 /. 2.5e9 /. 1280.0)
  in
  let seeds = Array.init 8 (fun k -> k + 1) in
  let sequential = Array.map run seeds in
  let parallel =
    Exec.with_pool ~domains:2 (fun pool ->
        Exec.parallel_map ~pool ~chunks_per_domain:2 run seeds)
  in
  Array.iteri
    (fun k w ->
      Alcotest.(check bool)
        (Printf.sprintf "pattern %d bit-identical" (k + 1))
        true
        (same_waveform w parallel.(k)))
    sequential

let suite =
  [
    Alcotest.test_case "static_fn algebra" `Quick test_static_fn_algebra;
    Alcotest.test_case "static_fn numeric table" `Quick test_static_fn_numeric_table;
    Alcotest.test_case "hmodel order" `Quick test_hmodel_order;
    Alcotest.test_case "hmodel rejects unstable" `Quick test_hmodel_rejects_unstable;
    Alcotest.test_case "hmodel analytic flag" `Quick test_hmodel_analytic_flag;
    Alcotest.test_case "transfer first order" `Quick test_transfer_first_order;
    Alcotest.test_case "transfer pair" `Quick test_transfer_second_order_matches_pair;
    Alcotest.test_case "dc gain static path" `Quick test_dc_gain_includes_static_path;
    Alcotest.test_case "dc output vs simulate" `Quick test_dc_output_matches_simulation;
    Alcotest.test_case "simulate step" `Quick test_simulate_first_order_step;
    Alcotest.test_case "simulate steady start" `Quick test_simulate_starts_at_steady_state;
    Alcotest.test_case "simulate sine gain" `Quick test_simulate_second_order_sine_gain;
    Alcotest.test_case "simulate small signal" `Quick test_simulate_linearized_matches_transfer_small_signal;
    Alcotest.test_case "equations text" `Quick test_equations_text;
    Alcotest.test_case "verilog-a export" `Quick test_verilog_a_export;
    Alcotest.test_case "matlab export" `Quick test_matlab_export;
    Alcotest.test_case "exports pinned" `Quick test_exports_pinned;
    Alcotest.test_case "simulate step allocation" `Quick
      test_simulate_step_allocation;
    Alcotest.test_case "simulate reentrant across domains" `Quick
      test_simulate_reentrant_across_domains;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_plan_matches_reference ]
