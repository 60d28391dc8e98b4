exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Clu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

(* same floor as Lu: a denormal pivot magnitude overflows multipliers *)
let tiny_pivot = 1e-300

(* [wre]/[wim] are the split solve scratch behind the boxed [solve_into] *)
type t = {
  lu : Cmat.t;
  perm : int array;
  wre : float array;
  wim : float array;
}

let workspace n =
  if n <= 0 then invalid_arg "Clu.workspace: size must be positive";
  {
    lu = Cmat.create n n;
    perm = Array.init n (fun i -> i);
    wre = Array.make n 0.0;
    wim = Array.make n 0.0;
  }

let lu f = f.lu
let perm f = f.perm

(* The kernels below index the split arrays of [lu] directly and spell
   out the stdlib formulas operation for operation, so the results are
   bit-for-bit those of the boxed Complex arithmetic:
   - Complex.norm z = Float.hypot z.re z.im (unboxed, noalloc);
   - Complex.mul x y = (xr*yr - xi*yi, xr*yi + xi*yr);
   - Complex.div x y = Smith's algorithm, branching on |yr| >= |yi|. *)

(* diagonal-ratio reciprocal-condition proxy, as in Lu.rcond_estimate *)
let rcond_estimate { lu; _ } =
  let n = Cmat.rows lu in
  let re = Cmat.unsafe_re lu and im = Cmat.unsafe_im lu in
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.hypot re.((i * n) + i) im.((i * n) + i) in
    if d < !mn then mn := d;
    if d > !mx then mx := d
  done;
  if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx

(* In-place Doolittle with partial pivoting, overwriting the workspace.
   This is the one implementation; [factor] wraps it with a fresh
   workspace, so both paths perform identical floating-point ops. *)
let factor_into ?guard ws a =
  let n = Cmat.rows a in
  if Cmat.cols a <> n then invalid_arg "Clu.factor_into: matrix not square";
  if Cmat.rows ws.lu <> n then invalid_arg "Clu.factor_into: workspace size mismatch";
  let inject = Fault.should_fire "clu.pivot_zero" in
  let lu = ws.lu and perm = ws.perm in
  Cmat.blit ~src:a ~dst:lu;
  let re = Cmat.unsafe_re lu and im = Cmat.unsafe_im lu in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* first row of largest modulus: strict [>] keeps the earliest of
       equal-magnitude ties *)
    let piv = ref k in
    let pmag = ref (Float.hypot re.((k * n) + k) im.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.hypot re.((i * n) + k) im.((i * n) + k) in
      if mag > !pmag then begin
        piv := i;
        pmag := mag
      end
    done;
    if !piv <> k then begin
      Cmat.swap_rows lu k !piv;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- tmp
    end;
    let zeroed = inject && k = 0 in
    let dr = if zeroed then 0.0 else re.((k * n) + k) in
    let di = if zeroed then 0.0 else im.((k * n) + k) in
    let pnorm = Float.hypot dr di in
    if pnorm < tiny_pivot || not (Float.is_finite dr && Float.is_finite di)
    then raise (Singular { pivot_index = k; magnitude = pnorm });
    (* Complex.div's ratio and denominator depend on the pivot alone *)
    let smith = Float.abs dr >= Float.abs di in
    let r = if smith then di /. dr else dr /. di in
    let d = if smith then dr +. (r *. di) else di +. (r *. dr) in
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      let xr = re.(ik) and xi = im.(ik) in
      let mr = if smith then (xr +. (r *. xi)) /. d else ((r *. xr) +. xi) /. d in
      let mi = if smith then (xi -. (r *. xr)) /. d else ((r *. xi) -. xr) /. d in
      re.(ik) <- mr;
      im.(ik) <- mi;
      if Float.hypot mr mi <> 0.0 then
        for j = k + 1 to n - 1 do
          let kj = (k * n) + j and ij = (i * n) + j in
          let lr = re.(kj) and li = im.(kj) in
          re.(ij) <- re.(ij) -. ((mr *. lr) -. (mi *. li));
          im.(ij) <- im.(ij) -. ((mr *. li) +. (mi *. lr))
        done
    done
  done;
  match guard with
  | None -> ()
  | Some (g : Guard.t) ->
      let rc = rcond_estimate ws in
      if rc < g.Guard.rcond_min then begin
        let idx = ref 0 and mn = ref infinity in
        for i = 0 to n - 1 do
          let d = Float.hypot re.((i * n) + i) im.((i * n) + i) in
          if d < !mn then begin
            mn := d;
            idx := i
          end
        done;
        raise (Singular { pivot_index = !idx; magnitude = !mn })
      end

let factor ?guard a =
  let ws = workspace (Cmat.rows a) in
  factor_into ?guard ws a;
  ws

(* Forward/back substitution in place on a split vector already loaded
   in permuted order: x ← U⁻¹ L⁻¹ x. *)
let substitute { lu; _ } xre xim =
  let n = Cmat.rows lu in
  let re = Cmat.unsafe_re lu and im = Cmat.unsafe_im lu in
  for i = 1 to n - 1 do
    let ar = ref xre.(i) and ai = ref xim.(i) in
    for j = 0 to i - 1 do
      let lr = re.((i * n) + j) and li = im.((i * n) + j) in
      let yr = xre.(j) and yi = xim.(j) in
      ar := !ar -. ((lr *. yr) -. (li *. yi));
      ai := !ai -. ((lr *. yi) +. (li *. yr))
    done;
    xre.(i) <- !ar;
    xim.(i) <- !ai
  done;
  for i = n - 1 downto 0 do
    let ar = ref xre.(i) and ai = ref xim.(i) in
    for j = i + 1 to n - 1 do
      let ur = re.((i * n) + j) and ui = im.((i * n) + j) in
      let yr = xre.(j) and yi = xim.(j) in
      ar := !ar -. ((ur *. yr) -. (ui *. yi));
      ai := !ai -. ((ur *. yi) +. (ui *. yr))
    done;
    let dr = re.((i * n) + i) and di = im.((i * n) + i) in
    if Float.abs dr >= Float.abs di then begin
      let r = di /. dr in
      let d = dr +. (r *. di) in
      xre.(i) <- (!ar +. (r *. !ai)) /. d;
      xim.(i) <- (!ai -. (r *. !ar)) /. d
    end
    else begin
      let r = dr /. di in
      let d = di +. (r *. dr) in
      xre.(i) <- ((r *. !ar) +. !ai) /. d;
      xim.(i) <- ((r *. !ai) -. !ar) /. d
    end
  done

let solve_real_into ({ lu; perm; _ } as f) b ~re ~im =
  let n = Cmat.rows lu in
  if Array.length b <> n || Array.length re <> n || Array.length im <> n then
    invalid_arg "Clu.solve_real_into: dimension mismatch";
  if b == re || b == im || re == im then
    invalid_arg "Clu.solve_real_into: b, re and im must not alias";
  for i = 0 to n - 1 do
    re.(i) <- b.(perm.(i));
    im.(i) <- 0.0
  done;
  substitute f re im

(* Boxed entry: load [b] into the workspace's split scratch, substitute
   there, box the result into [x]; [x] and [b] must be distinct buffers
   (the permuted load reads b out of order). *)
let solve_into ({ lu; perm; wre; wim } as f) b x =
  let n = Cmat.rows lu in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Clu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Clu.solve_into: b and x must not alias";
  for i = 0 to n - 1 do
    let z = b.(perm.(i)) in
    wre.(i) <- z.Complex.re;
    wim.(i) <- z.Complex.im
  done;
  substitute f wre wim;
  for i = 0 to n - 1 do
    x.(i) <- { Complex.re = wre.(i); im = wim.(i) }
  done

let solve f b =
  let x = Array.make (Array.length b) Cx.zero in
  solve_into f b x;
  x

let solve_mat f b =
  let n = Cmat.rows b and m = Cmat.cols b in
  let cols = Array.init m (fun j -> solve f (Array.init n (fun i -> Cmat.get b i j))) in
  Cmat.init n m (fun i j -> cols.(j).(i))

let solve_system a b = solve (factor a) b
