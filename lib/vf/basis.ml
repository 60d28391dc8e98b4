let row poles z =
  let p = Array.length poles in
  let out = Array.make p Complex.zero in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- Complex.inv (Complex.sub z poles.(k))
      | Pole.Pair_first k ->
          let t1 = Complex.inv (Complex.sub z poles.(k)) in
          let t2 = Complex.inv (Complex.sub z poles.(k + 1)) in
          out.(k) <- Complex.add t1 t2;
          out.(k + 1) <- Complex.mul Complex.i (Complex.sub t1 t2))
    (Pole.structure poles);
  out

let table poles points = Array.map (row poles) points

(* [Complex.inv (Complex.sub z a)] on unboxed floats: stdlib's Smith
   division of [Complex.one], expression for expression (the [r *. 0.0]
   and [r *. 1.0] terms included, so infinities and NaNs land exactly
   where the boxed path puts them). Writes the result into [re.(i)] and
   [im.(i)]. *)
let[@inline] inv_sub_into ~zr ~zi (a : Complex.t) re im i =
  let yr = zr -. a.Complex.re and yi = zi -. a.Complex.im in
  if Float.abs yr >= Float.abs yi then begin
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    Array.unsafe_set re i ((1.0 +. (r *. 0.0)) /. d);
    Array.unsafe_set im i ((0.0 -. (r *. 1.0)) /. d)
  end
  else begin
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    Array.unsafe_set re i (((r *. 1.0) +. 0.0) /. d);
    Array.unsafe_set im i (((r *. 0.0) -. 1.0) /. d)
  end

let table_into poles points ~re ~im =
  let p = Array.length poles and n_points = Array.length points in
  if Array.length re < n_points * p || Array.length im < n_points * p then
    invalid_arg "Basis.table_into: output too small";
  (* walk the normalized layout pole-major, as [Pole.structure] would
     (same tests, same failure), without building the slot list; like
     [table], no points means no layout check *)
  let k = ref (if n_points = 0 then p else 0) in
  while !k < p do
    let a = poles.(!k) in
    if a.Complex.im = 0.0 then begin
      for l = 0 to n_points - 1 do
        let z = points.(l) in
        inv_sub_into ~zr:z.Complex.re ~zi:z.Complex.im a re im ((l * p) + !k)
      done;
      incr k
    end
    else begin
      let b = if !k + 1 < p then poles.(!k + 1) else a in
      let scale = Float.max (Float.hypot a.Complex.re a.Complex.im) 1e-300 in
      if
        !k + 1 < p
        && Float.abs (a.Complex.re -. b.Complex.re) <= 1e-9 *. scale
        && Float.abs (a.Complex.im +. b.Complex.im) <= 1e-9 *. scale
      then begin
        let c1 = !k and c2 = !k + 1 in
        for l = 0 to n_points - 1 do
          let z = points.(l) in
          let i1 = (l * p) + c1 and i2 = (l * p) + c2 in
          (* t1 lands in slot c1, t2 in slot c2, then the pair combination
             [t1 + t2], [Complex.i * (t1 - t2)] overwrites both *)
          inv_sub_into ~zr:z.Complex.re ~zi:z.Complex.im a re im i1;
          inv_sub_into ~zr:z.Complex.re ~zi:z.Complex.im b re im i2;
          let t1r = Array.unsafe_get re i1 and t1i = Array.unsafe_get im i1 in
          let t2r = Array.unsafe_get re i2 and t2i = Array.unsafe_get im i2 in
          let sr = t1r -. t2r and si = t1i -. t2i in
          Array.unsafe_set re i1 (t1r +. t2r);
          Array.unsafe_set im i1 (t1i +. t2i);
          Array.unsafe_set re i2 ((0.0 *. sr) -. (1.0 *. si));
          Array.unsafe_set im i2 ((0.0 *. si) +. (1.0 *. sr))
        done;
        k := !k + 2
      end
      else invalid_arg "Pole.structure: pole array is not in normalized layout"
    end
  done

let residues_of_coeffs poles coeffs =
  let p = Array.length poles in
  if Array.length coeffs <> p then invalid_arg "Basis.residues_of_coeffs";
  let out = Array.make p Complex.zero in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- { Complex.re = coeffs.(k); im = 0.0 }
      | Pole.Pair_first k ->
          let r = { Complex.re = coeffs.(k); im = coeffs.(k + 1) } in
          out.(k) <- r;
          out.(k + 1) <- Complex.conj r)
    (Pole.structure poles);
  out

let coeffs_of_residues poles residues =
  let p = Array.length poles in
  if Array.length residues <> p then invalid_arg "Basis.coeffs_of_residues";
  let out = Array.make p 0.0 in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k -> out.(k) <- residues.(k).Complex.re
      | Pole.Pair_first k ->
          out.(k) <- residues.(k).Complex.re;
          out.(k + 1) <- residues.(k).Complex.im)
    (Pole.structure poles);
  out

let state_matrices poles =
  let p = Array.length poles in
  let a = Linalg.Mat.create p p in
  let b = Linalg.Vec.create p in
  List.iter
    (fun slot ->
      match slot with
      | Pole.Single k ->
          Linalg.Mat.set a k k poles.(k).Complex.re;
          b.(k) <- 1.0
      | Pole.Pair_first k ->
          let alpha = poles.(k).Complex.re and beta = poles.(k).Complex.im in
          Linalg.Mat.set a k k alpha;
          Linalg.Mat.set a k (k + 1) beta;
          Linalg.Mat.set a (k + 1) k (-.beta);
          Linalg.Mat.set a (k + 1) (k + 1) alpha;
          b.(k) <- 2.0;
          b.(k + 1) <- 0.0)
    (Pole.structure poles);
  (a, b)
