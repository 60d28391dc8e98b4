type expansion = {
  betas : float array;
  alphas : float array;
  c1 : float array;
  c2 : float array;
  const : float;
  offset : float;
}

let expansion_eval e x =
  let acc = ref (e.offset +. (e.const *. x)) in
  for m = 0 to Array.length e.betas - 1 do
    let dx = x -. e.betas.(m) and alpha = e.alphas.(m) in
    let den = (dx *. dx) +. (alpha *. alpha) in
    acc :=
      !acc +. (e.c1.(m) *. log den) -. (2.0 *. e.c2.(m) *. atan (dx /. alpha))
  done;
  !acc

let expansion_deriv e x =
  let acc = ref e.const in
  for m = 0 to Array.length e.betas - 1 do
    let dx = x -. e.betas.(m) and alpha = e.alphas.(m) in
    let den = (dx *. dx) +. (alpha *. alpha) in
    acc :=
      !acc +. (((2.0 *. e.c1.(m) *. dx) -. (2.0 *. e.c2.(m) *. alpha)) /. den)
  done;
  !acc

let expansion_formula e =
  let buf = Buffer.create 256 in
  let first = ref true in
  let plus () =
    if !first then first := false else Buffer.add_string buf " + "
  in
  if e.offset <> 0.0 || Array.length e.betas = 0 then begin
    plus ();
    Printf.bprintf buf "%.6g" e.offset
  end;
  if e.const <> 0.0 then begin
    plus ();
    Printf.bprintf buf "%.6g*x" e.const
  end;
  for m = 0 to Array.length e.betas - 1 do
    let beta = e.betas.(m) and alpha = e.alphas.(m) in
    if e.c1.(m) <> 0.0 then begin
      plus ();
      Printf.bprintf buf "%.6g*ln((x%+.6g)^2 + %.6g)" e.c1.(m) (-.beta)
        (alpha *. alpha)
    end;
    if e.c2.(m) <> 0.0 then begin
      plus ();
      Printf.bprintf buf "%.6g*atan((x%+.6g)/%.6g)" (-2.0 *. e.c2.(m)) (-.beta)
        alpha
    end
  done;
  Buffer.contents buf

type shape = Expansion of expansion | Add of t * t | Sub of t * t | Opaque

and t = {
  eval : float -> float;
  deriv : float -> float;
  formula : string;
  analytic : bool;
  shape : shape;
}

let make ?(analytic = true) ~formula ~eval ~deriv () =
  { eval; deriv; formula; analytic; shape = Opaque }

let of_expansion e =
  {
    eval = expansion_eval e;
    deriv = expansion_deriv e;
    formula = expansion_formula e;
    analytic = true;
    shape = Expansion e;
  }

let zero = make ~formula:"0" ~eval:(fun _ -> 0.0) ~deriv:(fun _ -> 0.0) ()

let add a b =
  {
    eval = (fun x -> a.eval x +. b.eval x);
    deriv = (fun x -> a.deriv x +. b.deriv x);
    formula = Printf.sprintf "(%s) + (%s)" a.formula b.formula;
    analytic = a.analytic && b.analytic;
    shape = Add (a, b);
  }

let sub a b =
  {
    eval = (fun x -> a.eval x -. b.eval x);
    deriv = (fun x -> a.deriv x -. b.deriv x);
    formula = Printf.sprintf "(%s) - (%s)" a.formula b.formula;
    analytic = a.analytic && b.analytic;
    shape = Sub (a, b);
  }

let scale k a =
  make ~analytic:a.analytic
    ~formula:(Printf.sprintf "%g*(%s)" k a.formula)
    ~eval:(fun x -> k *. a.eval x)
    ~deriv:(fun x -> k *. a.deriv x)
    ()

let of_samples_numeric ~xs ~rs =
  let n = Array.length xs in
  if n < 2 || Array.length rs <> n then
    invalid_arg "Static_fn.of_samples_numeric: need >= 2 matching samples";
  (* cumulative trapezoid for the antiderivative at the sample points *)
  let acc = Array.make n 0.0 in
  for k = 1 to n - 1 do
    acc.(k) <-
      acc.(k - 1) +. (0.5 *. (rs.(k) +. rs.(k - 1)) *. (xs.(k) -. xs.(k - 1)))
  done;
  let interp table x =
    if x <= xs.(0) then table.(0) +. (rs.(0) *. (x -. xs.(0)))
    else if x >= xs.(n - 1) then table.(n - 1) +. (rs.(n - 1) *. (x -. xs.(n - 1)))
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= x then lo := mid else hi := mid
      done;
      let w = (x -. xs.(!lo)) /. (xs.(!hi) -. xs.(!lo)) in
      table.(!lo) +. (w *. (table.(!hi) -. table.(!lo)))
    end
  in
  let interp_deriv x =
    if x <= xs.(0) then rs.(0)
    else if x >= xs.(n - 1) then rs.(n - 1)
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= x then lo := mid else hi := mid
      done;
      let w = (x -. xs.(!lo)) /. (xs.(!hi) -. xs.(!lo)) in
      rs.(!lo) +. (w *. (rs.(!hi) -. rs.(!lo)))
    end
  in
  make ~analytic:false
    ~formula:
      (Printf.sprintf "<numeric table over [%g, %g], %d points>" xs.(0)
         xs.(n - 1) n)
    ~eval:(interp acc) ~deriv:interp_deriv ()
