type branch =
  | First_order of { a : float; f : Static_fn.t }
  | Second_order of {
      alpha : float;
      beta : float;
      f1 : Static_fn.t;
      f2 : Static_fn.t;
    }

type t = {
  branches : branch array;
  static_path : Static_fn.t;
  name : string;
}

let make ?(name = "hammerstein") ~branches ~static_path () =
  Array.iter
    (fun b ->
      match b with
      | First_order { a; _ } ->
          if a >= 0.0 then invalid_arg "Hmodel.make: unstable real pole"
      | Second_order { alpha; _ } ->
          if alpha >= 0.0 then invalid_arg "Hmodel.make: unstable pole pair")
    branches;
  { branches; static_path; name }

let order t =
  Array.fold_left
    (fun acc b ->
      acc + match b with First_order _ -> 1 | Second_order _ -> 2)
    0 t.branches

let analytic t =
  t.static_path.Static_fn.analytic
  && Array.for_all
       (fun b ->
         match b with
         | First_order { f; _ } -> f.Static_fn.analytic
         | Second_order { f1; f2; _ } ->
             f1.Static_fn.analytic && f2.Static_fn.analytic)
       t.branches

let transfer t ~x ~s =
  let acc = ref { Complex.re = t.static_path.Static_fn.deriv x; im = 0.0 } in
  Array.iter
    (fun b ->
      match b with
      | First_order { a; f } ->
          let r = f.Static_fn.deriv x in
          acc :=
            Complex.add !acc
              (Complex.div { Complex.re = r; im = 0.0 }
                 (Complex.sub s { Complex.re = a; im = 0.0 }))
      | Second_order { alpha; beta; f1; f2 } ->
          (* residue r = c + jd with c = (f1'+f2')/2, d = (f1'−f2')/2;
             contribution 2[c(s−α) − dβ]/((s−α)² + β²) *)
          let c = 0.5 *. (f1.Static_fn.deriv x +. f2.Static_fn.deriv x) in
          let d = 0.5 *. (f1.Static_fn.deriv x -. f2.Static_fn.deriv x) in
          let sa = Complex.sub s { Complex.re = alpha; im = 0.0 } in
          let num =
            Complex.sub
              (Complex.mul { Complex.re = 2.0 *. c; im = 0.0 } sa)
              { Complex.re = 2.0 *. d *. beta; im = 0.0 }
          in
          let den =
            Complex.add (Complex.mul sa sa)
              { Complex.re = beta *. beta; im = 0.0 }
          in
          acc := Complex.add !acc (Complex.div num den))
    t.branches;
  !acc

let dc_gain t ~x = (transfer t ~x ~s:Complex.zero).Complex.re

let dc_output t ~x =
  let acc = ref (t.static_path.Static_fn.eval x) in
  Array.iter
    (fun b ->
      match b with
      | First_order { a; f } -> acc := !acc -. (f.Static_fn.eval x /. a)
      | Second_order { alpha; beta; f1; f2 } ->
          (* D·(−A⁻¹)·f with A = [α β; −β α] *)
          let det = (alpha *. alpha) +. (beta *. beta) in
          let v1 = f1.Static_fn.eval x and v2 = f2.Static_fn.eval x in
          let y1 = -.((alpha *. v1) -. (beta *. v2)) /. det in
          let y2 = -.((beta *. v1) +. (alpha *. v2)) /. det in
          acc := !acc +. y1 +. y2)
    t.branches;
  !acc

(* ---------------- simulation plan ---------------- *)

(* The static stages compiled for one simulate call. Registers are the
   slots of a float array; register 0 holds the input x of the current
   step. Every op writes one register from x, the shared basis scratch
   or earlier registers, so running [ops] in order evaluates every
   stage. *)
type op =
  | Leaf of {
      dst : int;
      basis : int;  (* first slot of the stage's pole basis in the scratch *)
      c1 : float array;
      c2 : float array;
      const : float;
      offset : float;
    }
  | Sum of { dst : int; a : int; b : int }
  | Diff of { dst : int; a : int; b : int }
  | Call of { dst : int; f : float -> float }

type plan = {
  betas : float array;  (* every distinct pole basis, concatenated *)
  alphas : float array;
  ops : op array;
  regs : int;
  f0 : int;  (* register of the static path *)
  (* per branch *)
  second : bool array;  (* a Second_order pair *)
  re : float array;  (* a (first order) or α *)
  im : float array;  (* β, unused for first order *)
  in1 : int array;  (* register of f (first order) or f1 *)
  in2 : int array;  (* register of f2, unused for first order *)
}

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Bases are shared when their pole arrays are bitwise equal; nodes are
   compiled once per physical stage, so the [fa]/[fb] that an [f1 = fa + fb],
   [f2 = fa − fb] pair shares are evaluated once per step. *)
let compile t =
  let bases = ref [] and n_poles = ref 0 in
  let basis_of (e : Static_fn.expansion) =
    match
      List.find_opt
        (fun (b, a, _) -> same_bits b e.betas && same_bits a e.alphas)
        !bases
    with
    | Some (_, _, first) -> first
    | None ->
        let first = !n_poles in
        bases := (e.betas, e.alphas, first) :: !bases;
        n_poles := first + Array.length e.betas;
        first
  in
  let ops = ref [] and regs = ref 1 and seen = ref [] in
  let emit op =
    let dst = !regs in
    incr regs;
    ops := op dst :: !ops;
    dst
  in
  let rec node (f : Static_fn.t) =
    match List.assq_opt f !seen with
    | Some r -> r
    | None ->
        let r =
          match f.Static_fn.shape with
          | Static_fn.Expansion e ->
              let basis = basis_of e in
              emit (fun dst ->
                  Leaf
                    {
                      dst;
                      basis;
                      c1 = e.c1;
                      c2 = e.c2;
                      const = e.const;
                      offset = e.offset;
                    })
          | Static_fn.Add (a, b) ->
              let a = node a in
              let b = node b in
              emit (fun dst -> Sum { dst; a; b })
          | Static_fn.Sub (a, b) ->
              let a = node a in
              let b = node b in
              emit (fun dst -> Diff { dst; a; b })
          | Static_fn.Opaque ->
              emit (fun dst -> Call { dst; f = f.Static_fn.eval })
        in
        seen := (f, r) :: !seen;
        r
  in
  let nb = Array.length t.branches in
  let second = Array.make nb false in
  let re = Array.make nb 0.0 and im = Array.make nb 0.0 in
  let in1 = Array.make nb 0 and in2 = Array.make nb 0 in
  Array.iteri
    (fun k b ->
      match b with
      | First_order { a; f } ->
          re.(k) <- a;
          in1.(k) <- node f
      | Second_order { alpha; beta; f1; f2 } ->
          second.(k) <- true;
          re.(k) <- alpha;
          im.(k) <- beta;
          in1.(k) <- node f1;
          in2.(k) <- node f2)
    t.branches;
  let f0 = node t.static_path in
  let bases = List.rev !bases in
  {
    betas = Array.concat (List.map (fun (b, _, _) -> b) bases);
    alphas = Array.concat (List.map (fun (_, a, _) -> a) bases);
    ops = Array.of_list (List.rev !ops);
    regs = !regs;
    f0;
    second;
    re;
    im;
    in1;
    in2;
  }

(* Evaluate every stage at x = reg.(0): one ln and one atan per basis
   pole into [lg]/[at], then the ops. Each leaf sums its terms in pole
   order with the arithmetic of [Static_fn.expansion_eval], so registers
   hold exactly what the stage closures return. Takes no float argument
   and returns unit, so nothing is boxed. *)
let run_plan p ~reg ~lg ~at =
  let x = reg.(0) in
  for j = 0 to Array.length p.betas - 1 do
    let dx = x -. p.betas.(j) and alpha = p.alphas.(j) in
    let den = (dx *. dx) +. (alpha *. alpha) in
    lg.(j) <- log den;
    at.(j) <- atan (dx /. alpha)
  done;
  for i = 0 to Array.length p.ops - 1 do
    match p.ops.(i) with
    | Leaf { dst; basis; c1; c2; const; offset } ->
        let acc = ref (offset +. (const *. x)) in
        for m = 0 to Array.length c1 - 1 do
          acc :=
            !acc +. (c1.(m) *. lg.(basis + m))
            -. (2.0 *. c2.(m) *. at.(basis + m))
        done;
        reg.(dst) <- !acc
    | Sum { dst; a; b } -> reg.(dst) <- reg.(a) +. reg.(b)
    | Diff { dst; a; b } -> reg.(dst) <- reg.(a) -. reg.(b)
    | Call { dst; f } -> reg.(dst) <- f x
  done

(* values.(i) <- F0 + Σ branch states, summed in branch order *)
let output_into values i p ~reg ~y1 ~y2 =
  let acc = ref reg.(p.f0) in
  for k = 0 to Array.length p.second - 1 do
    if p.second.(k) then acc := !acc +. y1.(k) +. y2.(k)
    else acc := !acc +. y1.(k)
  done;
  values.(i) <- !acc

let simulate t ~u ~t_stop ~dt =
  if not (dt > 0.0 && t_stop > 0.0) then
    invalid_arg "Hmodel.simulate: dt and t_stop must be > 0";
  let steps =
    Stdlib.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9)))
  in
  let p = compile t in
  let nb = Array.length t.branches in
  let reg = Array.make p.regs 0.0 in
  let lg = Array.make (Array.length p.betas) 0.0 in
  let at = Array.make (Array.length p.betas) 0.0 in
  (* per-branch trapezoidal state: y and the previous step's f *)
  let y1 = Array.make nb 0.0 and y2 = Array.make nb 0.0 in
  let v1 = Array.make nb 0.0 and v2 = Array.make nb 0.0 in
  let times = Array.make (steps + 1) 0.0 in
  let values = Array.make (steps + 1) 0.0 in
  (* DC steady state at u(0): ẏ = 0 *)
  reg.(0) <- u 0.0;
  run_plan p ~reg ~lg ~at;
  for k = 0 to nb - 1 do
    if p.second.(k) then begin
      let alpha = p.re.(k) and beta = p.im.(k) in
      let w1 = reg.(p.in1.(k)) and w2 = reg.(p.in2.(k)) in
      (* y = −A⁻¹ v, A = [α β; −β α], A⁻¹ = [α −β; β α]/(α²+β²) *)
      let det = (alpha *. alpha) +. (beta *. beta) in
      y1.(k) <- -.((alpha *. w1) -. (beta *. w2)) /. det;
      y2.(k) <- -.((beta *. w1) +. (alpha *. w2)) /. det;
      v1.(k) <- w1;
      v2.(k) <- w2
    end
    else begin
      let v = reg.(p.in1.(k)) in
      y1.(k) <- -.v /. p.re.(k);
      v1.(k) <- v
    end
  done;
  output_into values 0 p ~reg ~y1 ~y2;
  for step = 1 to steps do
    let tk = float_of_int step *. dt in
    let time = if tk < t_stop then tk else t_stop in
    let h = time -. times.(step - 1) in
    reg.(0) <- u time;
    run_plan p ~reg ~lg ~at;
    for k = 0 to nb - 1 do
      if p.second.(k) then begin
        let v1n = reg.(p.in1.(k)) and v2n = reg.(p.in2.(k)) in
        (* rhs = (I + hA/2) y + h/2 (v_old + v_new) *)
        let ha = 0.5 *. h *. p.re.(k) and hb = 0.5 *. h *. p.im.(k) in
        let r1 =
          ((1.0 +. ha) *. y1.(k)) +. (hb *. y2.(k))
          +. (0.5 *. h *. (v1.(k) +. v1n))
        in
        let r2 =
          (-.hb *. y1.(k)) +. ((1.0 +. ha) *. y2.(k))
          +. (0.5 *. h *. (v2.(k) +. v2n))
        in
        (* M = I − hA/2 = [1−ha, −hb; hb, 1−ha] *)
        let m11 = 1.0 -. ha and m12 = -.hb in
        let det = (m11 *. m11) +. (hb *. hb) in
        y1.(k) <- ((m11 *. r1) -. (m12 *. r2)) /. det;
        y2.(k) <- ((m11 *. r2) +. (m12 *. r1)) /. det;
        v1.(k) <- v1n;
        v2.(k) <- v2n
      end
      else begin
        let a = p.re.(k) and v_new = reg.(p.in1.(k)) in
        let num =
          ((1.0 +. (0.5 *. h *. a)) *. y1.(k))
          +. (0.5 *. h *. (v1.(k) +. v_new))
        in
        y1.(k) <- num /. (1.0 -. (0.5 *. h *. a));
        v1.(k) <- v_new
      end
    done;
    times.(step) <- time;
    output_into values step p ~reg ~y1 ~y2
  done;
  Signal.Waveform.make times values

let basis_poles t = Array.length (compile t).betas

let equations t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "// model: %s (order %d)\n" t.name (order t);
  Printf.bprintf buf "// static path\n";
  Printf.bprintf buf "y0(t) = F0(x(t)),  F0(x) = %s\n\n" t.static_path.Static_fn.formula;
  Array.iteri
    (fun k b ->
      match b with
      | First_order { a; f } ->
          Printf.bprintf buf "// branch %d (real pole)\n" k;
          Printf.bprintf buf "d/dt y%d = %.6e * y%d + f%d(x(t))\n" (k + 1) a (k + 1) (k + 1);
          Printf.bprintf buf "f%d(x) = %s\n\n" (k + 1) f.Static_fn.formula
      | Second_order { alpha; beta; f1; f2 } ->
          Printf.bprintf buf "// branch %d (complex pole pair %.6e +/- j%.6e)\n" k alpha beta;
          Printf.bprintf buf
            "d/dt y%da = %.6e*y%da + %.6e*y%db + f%da(x(t))\n" (k + 1) alpha (k + 1)
            beta (k + 1) (k + 1);
          Printf.bprintf buf
            "d/dt y%db = %.6e*y%da + %.6e*y%db + f%db(x(t))\n" (k + 1) (-.beta)
            (k + 1) alpha (k + 1) (k + 1);
          Printf.bprintf buf "f%da(x) = %s\n" (k + 1) f1.Static_fn.formula;
          Printf.bprintf buf "f%db(x) = %s\n\n" (k + 1) f2.Static_fn.formula)
    t.branches;
  Buffer.add_string buf "y(t) = y0(t)";
  Array.iteri
    (fun k b ->
      match b with
      | First_order _ -> Printf.bprintf buf " + y%d" (k + 1)
      | Second_order _ -> Printf.bprintf buf " + y%da + y%db" (k + 1) (k + 1))
    t.branches;
  Buffer.add_string buf "\n";
  Buffer.contents buf
