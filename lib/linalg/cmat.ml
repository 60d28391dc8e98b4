(* Split re/im storage: element (i, j) lives at index i*nc + j of both
   [re] and [im], the same convention as [Sp.ct]. Hot kernels read the
   raw arrays through [unsafe_re]/[unsafe_im]; the boxed accessors below
   are for cold callers. *)
type t = { nr : int; nc : int; re : float array; im : float array }
type vec = Cx.t array

let create nr nc =
  { nr; nc; re = Array.make (nr * nc) 0.0; im = Array.make (nr * nc) 0.0 }

let init nr nc f =
  let m = create nr nc in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      let z = f i j in
      m.re.((i * nc) + j) <- z.Complex.re;
      m.im.((i * nc) + j) <- z.Complex.im
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

(* elementwise Cx.(scale g a +: scale c b), spelled out on the raw
   arrays so nothing is boxed *)
let lincomb_into dst (a : Cx.t) ma (b : Cx.t) mb =
  if
    Mat.rows ma <> dst.nr || Mat.cols ma <> dst.nc
    || Mat.rows mb <> dst.nr || Mat.cols mb <> dst.nc
  then invalid_arg "Cmat.lincomb_into: dimension mismatch";
  let g = Mat.unsafe_data ma and c = Mat.unsafe_data mb in
  let ar = a.Complex.re and ai = a.Complex.im in
  let br = b.Complex.re and bi = b.Complex.im in
  let re = dst.re and im = dst.im in
  for k = 0 to (dst.nr * dst.nc) - 1 do
    let gk = g.(k) and ck = c.(k) in
    re.(k) <- (gk *. ar) +. (ck *. br);
    im.(k) <- (gk *. ai) +. (ck *. bi)
  done

let lincomb a ma b mb =
  if Mat.rows ma <> Mat.rows mb || Mat.cols ma <> Mat.cols mb then
    invalid_arg "Cmat.lincomb: dimension mismatch";
  let dst = create (Mat.rows ma) (Mat.cols ma) in
  lincomb_into dst a ma b mb;
  dst

let rows m = m.nr
let cols m = m.nc
let unsafe_re m = m.re
let unsafe_im m = m.im
let get m i j = { Complex.re = m.re.((i * m.nc) + j); im = m.im.((i * m.nc) + j) }

let set m i j z =
  m.re.((i * m.nc) + j) <- z.Complex.re;
  m.im.((i * m.nc) + j) <- z.Complex.im

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let blit ~src ~dst =
  if src.nr <> dst.nr || src.nc <> dst.nc then
    invalid_arg "Cmat.blit: dimension mismatch";
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let get_col src j dst =
  if Array.length dst <> src.nr || j < 0 || j >= src.nc then
    invalid_arg "Cmat.get_col: dimension mismatch";
  for i = 0 to src.nr - 1 do
    dst.(i) <- get src i j
  done

let set_col dst j src =
  if Array.length src <> dst.nr || j < 0 || j >= dst.nc then
    invalid_arg "Cmat.set_col: dimension mismatch";
  for i = 0 to dst.nr - 1 do
    set dst i j src.(i)
  done

(* acc starts at +0 and skips zero weights, exactly like a boxed
   Cx.(acc +: scale d x) fold *)
let set_col_mul_t dst j d ~re ~im =
  let n = Mat.rows d in
  if
    Mat.cols d <> dst.nr || j < 0 || j >= dst.nc
    || Array.length re <> n || Array.length im <> n
  then invalid_arg "Cmat.set_col_mul_t: dimension mismatch";
  let dd = Mat.unsafe_data d and p = Mat.cols d in
  for o = 0 to p - 1 do
    let ar = ref 0.0 and ai = ref 0.0 in
    for k = 0 to n - 1 do
      let dk = dd.((k * p) + o) in
      if dk <> 0.0 then begin
        ar := !ar +. (dk *. re.(k));
        ai := !ai +. (dk *. im.(k))
      end
    done;
    dst.re.((o * dst.nc) + j) <- !ar;
    dst.im.((o * dst.nc) + j) <- !ai
  done

let mul a b =
  if a.nc <> b.nr then invalid_arg "Cmat.mul: dimension mismatch";
  let c = create a.nr b.nc in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let aik = get a i k in
      if aik <> Cx.zero then
        for j = 0 to b.nc - 1 do
          let cij = get c i j and bkj = get b k j in
          set c i j Cx.(cij +: (aik *: bkj))
        done
    done
  done;
  c

let mulv a x =
  if a.nc <> Array.length x then invalid_arg "Cmat.mulv: dimension mismatch";
  Array.init a.nr (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to a.nc - 1 do
        let aij = get a i j in
        acc := Cx.(!acc +: (aij *: x.(j)))
      done;
      !acc)

let swap_rows m i1 i2 =
  if i1 <> i2 then
    for j = 0 to m.nc - 1 do
      let k1 = (i1 * m.nc) + j and k2 = (i2 * m.nc) + j in
      let tr = m.re.(k1) and ti = m.im.(k1) in
      m.re.(k1) <- m.re.(k2);
      m.im.(k1) <- m.im.(k2);
      m.re.(k2) <- tr;
      m.im.(k2) <- ti
    done

let max_abs m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.re - 1 do
    acc := Float.max !acc (Float.hypot m.re.(k) m.im.(k))
  done;
  !acc

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.nr - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.nc - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.nr - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
