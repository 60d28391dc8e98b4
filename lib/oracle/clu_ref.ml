(* The boxed Doolittle LU that [Linalg.Clu] replaced, kept verbatim as
   the bitwise reference: every entry is a [Complex.t] record and every
   operation goes through the stdlib [Complex] arithmetic. *)

let tiny_pivot = 1e-300

type t = { n : int; lu : Complex.t array; perm : int array }

let workspace n =
  if n <= 0 then invalid_arg "Clu_ref.workspace: size must be positive";
  { n; lu = Array.make (n * n) Complex.zero; perm = Array.init n (fun i -> i) }

let lu f = f.lu
let perm f = f.perm
let get f i j = f.lu.((i * f.n) + j)
let set f i j z = f.lu.((i * f.n) + j) <- z

let swap_rows f i1 i2 =
  if i1 <> i2 then
    for j = 0 to f.n - 1 do
      let tmp = get f i1 j in
      set f i1 j (get f i2 j);
      set f i2 j tmp
    done

let rcond_estimate f =
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to f.n - 1 do
    let d = Complex.norm (get f i i) in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx

let factor_into ?guard ws a =
  let n = Linalg.Cmat.rows a in
  if Linalg.Cmat.cols a <> n then invalid_arg "Clu_ref.factor_into: matrix not square";
  if ws.n <> n then invalid_arg "Clu_ref.factor_into: workspace size mismatch";
  let inject = Fault.should_fire "clu.pivot_zero" in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      set ws i j (Linalg.Cmat.get a i j)
    done
  done;
  let perm = ws.perm in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get ws i k) > Complex.norm (get ws !piv k) then piv := i
    done;
    if !piv <> k then begin
      swap_rows ws k !piv;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tmp
    end;
    let pivot = if inject && k = 0 then Complex.zero else get ws k k in
    if
      Complex.norm pivot < tiny_pivot
      || not (Float.is_finite pivot.Complex.re && Float.is_finite pivot.Complex.im)
    then
      raise
        (Linalg.Clu.Singular
           { pivot_index = k; magnitude = Complex.norm pivot });
    for i = k + 1 to n - 1 do
      let m = Complex.div (get ws i k) pivot in
      set ws i k m;
      if Complex.norm m <> 0.0 then
        for j = k + 1 to n - 1 do
          set ws i j (Complex.sub (get ws i j) (Complex.mul m (get ws k j)))
        done
    done
  done;
  match guard with
  | None -> ()
  | Some (g : Guard.t) ->
      if rcond_estimate ws < g.Guard.rcond_min then begin
        let idx = ref 0 and mn = ref infinity in
        for i = 0 to n - 1 do
          let d = Complex.norm (get ws i i) in
          if d < !mn then begin
            mn := d;
            idx := i
          end
        done;
        raise (Linalg.Clu.Singular { pivot_index = !idx; magnitude = !mn })
      end

let factor ?guard a =
  let ws = workspace (Linalg.Cmat.rows a) in
  factor_into ?guard ws a;
  ws

let solve_into f b x =
  let n = f.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Clu_ref.solve_into: dimension mismatch";
  if b == x then invalid_arg "Clu_ref.solve_into: b and x must not alias";
  for i = 0 to n - 1 do
    x.(i) <- b.(f.perm.(i))
  done;
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := Complex.sub !acc (Complex.mul (get f i j) x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul (get f i j) x.(j))
    done;
    x.(i) <- Complex.div !acc (get f i i)
  done

let solve f b =
  let x = Array.make (Array.length b) Complex.zero in
  solve_into f b x;
  x

let scale k (z : Complex.t) = { Complex.re = k *. z.Complex.re; im = k *. z.Complex.im }

(* the pre-split Cmat.lincomb and Ac.transfer_ws: boxed G + s·C, a
   complex copy of B solved column by column, then the Dᵀ X fold *)
let pencil ~g ~c ~s =
  Linalg.Cmat.init (Linalg.Mat.rows g) (Linalg.Mat.cols g) (fun r col ->
      Complex.add
        (scale (Linalg.Mat.get g r col) Complex.one)
        (scale (Linalg.Mat.get c r col) s))

let project f ~b ~d =
  let n = Linalg.Mat.rows b and mi = Linalg.Mat.cols b in
  let x =
    Array.init mi (fun j ->
        solve f
          (Array.init n (fun i ->
               { Complex.re = Linalg.Mat.get b i j; im = 0.0 })))
  in
  Linalg.Cmat.init (Linalg.Mat.cols d) mi (fun o j ->
      let acc = ref Complex.zero in
      for k = 0 to n - 1 do
        let dk = Linalg.Mat.get d k o in
        if dk <> 0.0 then acc := Complex.add !acc (scale dk x.(j).(k))
      done;
      !acc)

let transfer ~g ~c ~b ~d ~s = project (factor (pencil ~g ~c ~s)) ~b ~d
