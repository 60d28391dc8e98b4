exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Spclu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

let tiny_pivot = 1e-300
let diag_threshold = 0.1

type t = {
  n : int;
  pat : Sp.pattern;
  q : int array;
  pinv : int array;
  lp : int array;
  up : int array;
  mutable li : int array;
  mutable lre : float array;
  mutable lim : float array;
  mutable lnz : int;
  mutable ui : int array;
  mutable ure : float array;
  mutable uim : float array;
  mutable unz : int;
  xre : float array;
  xim : float array;
  wre : float array;
  wim : float array;
  sym : Spsym.t;
  mutable factored : bool;
}

let workspace (pat : Sp.pattern) =
  if pat.Sp.nrows <> pat.Sp.ncols then
    invalid_arg "Spclu.workspace: pattern not square";
  let n = pat.Sp.nrows in
  let cap = max (4 * Sp.nnz pat) (2 * n) in
  {
    n;
    pat;
    q = Sp.mindeg pat;
    pinv = Array.make n (-1);
    lp = Array.make (n + 1) 0;
    up = Array.make (n + 1) 0;
    li = Array.make cap 0;
    lre = Array.make cap 0.0;
    lim = Array.make cap 0.0;
    lnz = 0;
    ui = Array.make cap 0;
    ure = Array.make cap 0.0;
    uim = Array.make cap 0.0;
    unz = 0;
    xre = Array.make n 0.0;
    xim = Array.make n 0.0;
    wre = Array.make n 0.0;
    wim = Array.make n 0.0;
    sym = Spsym.create n ~cap;
    factored = false;
  }

let ws_matches ws (pat : Sp.pattern) = ws.pat == pat
let lu_nnz ws = ws.lnz + ws.unz

(* as in Splu: growth out of line, pushes inlined with unboxed floats *)
let grow_l ws =
  let c = 2 * ws.lnz in
  let ni = Array.make c 0 in
  let nr = Array.make c 0.0 and nm = Array.make c 0.0 in
  Array.blit ws.li 0 ni 0 ws.lnz;
  Array.blit ws.lre 0 nr 0 ws.lnz;
  Array.blit ws.lim 0 nm 0 ws.lnz;
  ws.li <- ni;
  ws.lre <- nr;
  ws.lim <- nm
[@@inline never]

let grow_u ws =
  let c = 2 * ws.unz in
  let ni = Array.make c 0 in
  let nr = Array.make c 0.0 and nm = Array.make c 0.0 in
  Array.blit ws.ui 0 ni 0 ws.unz;
  Array.blit ws.ure 0 nr 0 ws.unz;
  Array.blit ws.uim 0 nm 0 ws.unz;
  ws.ui <- ni;
  ws.ure <- nr;
  ws.uim <- nm
[@@inline never]

let[@inline] push_l ws i re im =
  if ws.lnz = Array.length ws.li then grow_l ws;
  ws.li.(ws.lnz) <- i;
  ws.lre.(ws.lnz) <- re;
  ws.lim.(ws.lnz) <- im;
  ws.lnz <- ws.lnz + 1

let[@inline] push_u ws i re im =
  if ws.unz = Array.length ws.ui then grow_u ws;
  ws.ui.(ws.unz) <- i;
  ws.ure.(ws.unz) <- re;
  ws.uim.(ws.unz) <- im;
  ws.unz <- ws.unz + 1

let[@inline] mag re im = sqrt ((re *. re) +. (im *. im))

(* the complex twin of Splu.numeric: same replay contract, same reach
   order; divisions by the pivot are Smith's robust complex division
   (ar + i·ai) / (br + i·bi), spelled out so nothing is boxed *)
let numeric ws (a : Sp.ct) ~inject ~replay =
  let n = ws.n and sym = ws.sym in
  let xre = ws.xre and xim = ws.xim in
  ws.lnz <- 0;
  ws.unz <- 0;
  ws.factored <- false;
  Array.fill ws.pinv 0 n (-1);
  if not replay then Spsym.start_search sym;
  let pat = a.Sp.cpat in
  for k = 0 to n - 1 do
    ws.lp.(k) <- ws.lnz;
    ws.up.(k) <- ws.unz;
    let col = ws.q.(k) in
    if not replay then
      Spsym.search_column sym pat ~li:ws.li ~lp:ws.lp ~pinv:ws.pinv ~col ~k;
    let r = sym.Spsym.rlist in
    let lo = sym.Spsym.rptr.(k) and hi = sym.Spsym.rptr.(k + 1) - 1 in
    for p = lo to hi do
      xre.(r.(p)) <- 0.0;
      xim.(r.(p)) <- 0.0
    done;
    for p = pat.Sp.colptr.(col) to pat.Sp.colptr.(col + 1) - 1 do
      xre.(pat.Sp.rowind.(p)) <- a.Sp.re.(p);
      xim.(pat.Sp.rowind.(p)) <- a.Sp.im.(p)
    done;
    for p = lo to hi do
      let j = r.(p) in
      let jq = ws.pinv.(j) in
      if jq >= 0 then begin
        let xr = xre.(j) and xi = xim.(j) in
        for pp = ws.lp.(jq) + 1 to ws.lp.(jq + 1) - 1 do
          let i = ws.li.(pp) in
          let lr = ws.lre.(pp) and li = ws.lim.(pp) in
          xre.(i) <- xre.(i) -. ((lr *. xr) -. (li *. xi));
          xim.(i) <- xim.(i) -. ((lr *. xi) +. (li *. xr))
        done
      end
    done;
    let ipiv = ref (-1) and amax = ref (-1.0) and diag_open = ref false in
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) < 0 then begin
        if i = col then diag_open := true;
        let t = mag xre.(i) xim.(i) in
        if t > !amax then begin
          amax := t;
          ipiv := i
        end
      end
    done;
    if
      !ipiv >= 0 && !diag_open
      && mag xre.(col) xim.(col) >= diag_threshold *. !amax
      && mag xre.(col) xim.(col) >= tiny_pivot
    then ipiv := col;
    if !ipiv < 0 then raise (Singular { pivot_index = k; magnitude = 0.0 });
    if replay then begin
      if !ipiv <> sym.Spsym.rpiv.(k) then begin
        for p = lo to hi do
          xre.(r.(p)) <- 0.0;
          xim.(r.(p)) <- 0.0
        done;
        raise Spsym.Repivot
      end
    end
    else sym.Spsym.rpiv.(k) <- !ipiv;
    let zeroed = inject && k = 0 in
    let pre = if zeroed then 0.0 else xre.(!ipiv)
    and pim = if zeroed then 0.0 else xim.(!ipiv) in
    let pmag = mag pre pim in
    if pmag < tiny_pivot || not (Float.is_finite pmag) then
      raise (Singular { pivot_index = k; magnitude = pmag });
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) >= 0 then push_u ws ws.pinv.(i) xre.(i) xim.(i)
    done;
    push_u ws k pre pim;
    ws.pinv.(!ipiv) <- k;
    push_l ws !ipiv 1.0 0.0;
    let re_major = Float.abs pre >= Float.abs pim in
    let ratio = if re_major then pim /. pre else pre /. pim in
    let den = if re_major then pre +. (pim *. ratio) else (pre *. ratio) +. pim in
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) < 0 then begin
        let ar = xre.(i) and ai = xim.(i) in
        if re_major then
          push_l ws i ((ar +. (ai *. ratio)) /. den) ((ai -. (ar *. ratio)) /. den)
        else
          push_l ws i (((ar *. ratio) +. ai) /. den) (((ai *. ratio) -. ar) /. den)
      end;
      xre.(i) <- 0.0;
      xim.(i) <- 0.0
    done
  done;
  ws.lp.(n) <- ws.lnz;
  ws.up.(n) <- ws.unz;
  for p = 0 to ws.lnz - 1 do
    ws.li.(p) <- ws.pinv.(ws.li.(p))
  done;
  if not replay then Spsym.finish_search sym

let factor_into ?guard ws (a : Sp.ct) =
  if not (a.Sp.cpat == ws.pat) then
    invalid_arg "Spclu.factor_into: matrix pattern does not match workspace";
  let inject = Fault.should_fire "sp.singular" in
  (if ws.sym.Spsym.recorded then
     try numeric ws a ~inject ~replay:true
     with Spsym.Repivot -> numeric ws a ~inject ~replay:false
   else numeric ws a ~inject ~replay:false);
  ws.factored <- true;
  let n = ws.n in
  match guard with
  | None -> ()
  | Some (g : Guard.t) ->
      let mn = ref infinity and mx = ref 0.0 and idx = ref 0 in
      for k = 0 to n - 1 do
        let p = ws.up.(k + 1) - 1 in
        let d = mag ws.ure.(p) ws.uim.(p) in
        if d < !mn then begin
          mn := d;
          idx := k
        end;
        if d > !mx then mx := d
      done;
      let rc =
        if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx
      in
      if rc < g.Guard.rcond_min then
        raise (Singular { pivot_index = !idx; magnitude = !mn })

let factor ?guard a =
  let ws = workspace a.Sp.cpat in
  factor_into ?guard ws a;
  ws

let rcond_estimate ws =
  if not ws.factored then 0.0
  else begin
    let mn = ref infinity and mx = ref 0.0 in
    for k = 0 to ws.n - 1 do
      let p = ws.up.(k + 1) - 1 in
      let d = mag ws.ure.(p) ws.uim.(p) in
      if d < !mn then mn := d;
      if d > !mx then mx := d
    done;
    if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx
  end

(* forward and backward substitution in place on the split scratch
   (wre, wim), which holds the row-permuted right-hand side *)
let substitute ws =
  let n = ws.n and wre = ws.wre and wim = ws.wim in
  for k = 0 to n - 1 do
    let wr = wre.(k) and wi = wim.(k) in
    for p = ws.lp.(k) + 1 to ws.lp.(k + 1) - 1 do
      let i = ws.li.(p) in
      let lr = ws.lre.(p) and li = ws.lim.(p) in
      wre.(i) <- wre.(i) -. ((lr *. wr) -. (li *. wi));
      wim.(i) <- wim.(i) -. ((lr *. wi) +. (li *. wr))
    done
  done;
  for k = n - 1 downto 0 do
    let pd = ws.up.(k + 1) - 1 in
    let ar = wre.(k) and ai = wim.(k) in
    let br = ws.ure.(pd) and bi = ws.uim.(pd) in
    let re_major = Float.abs br >= Float.abs bi in
    let ratio = if re_major then bi /. br else br /. bi in
    let den = if re_major then br +. (bi *. ratio) else (br *. ratio) +. bi in
    let wr =
      if re_major then (ar +. (ai *. ratio)) /. den
      else ((ar *. ratio) +. ai) /. den
    and wi =
      if re_major then (ai -. (ar *. ratio)) /. den
      else ((ai *. ratio) -. ar) /. den
    in
    wre.(k) <- wr;
    wim.(k) <- wi;
    for p = ws.up.(k) to pd - 1 do
      let i = ws.ui.(p) in
      let ur = ws.ure.(p) and ui = ws.uim.(p) in
      wre.(i) <- wre.(i) -. ((ur *. wr) -. (ui *. wi));
      wim.(i) <- wim.(i) -. ((ur *. wi) +. (ui *. wr))
    done
  done

let solve_into ws (b : Cmat.vec) (x : Cmat.vec) =
  if not ws.factored then invalid_arg "Spclu.solve_into: not factored";
  let n = ws.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Spclu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Spclu.solve_into: b and x must not alias";
  for i = 0 to n - 1 do
    let bi = b.(i) in
    ws.wre.(ws.pinv.(i)) <- bi.Complex.re;
    ws.wim.(ws.pinv.(i)) <- bi.Complex.im
  done;
  substitute ws;
  for k = 0 to n - 1 do
    x.(ws.q.(k)) <- { Complex.re = ws.wre.(k); im = ws.wim.(k) }
  done

let solve_real_into ws (b : float array) ~re ~im =
  if not ws.factored then invalid_arg "Spclu.solve_real_into: not factored";
  let n = ws.n in
  if Array.length b <> n || Array.length re <> n || Array.length im <> n then
    invalid_arg "Spclu.solve_real_into: dimension mismatch";
  if b == re || b == im || re == im then
    invalid_arg "Spclu.solve_real_into: buffers must be distinct";
  for i = 0 to n - 1 do
    ws.wre.(ws.pinv.(i)) <- b.(i);
    ws.wim.(ws.pinv.(i)) <- 0.0
  done;
  substitute ws;
  for k = 0 to n - 1 do
    re.(ws.q.(k)) <- ws.wre.(k);
    im.(ws.q.(k)) <- ws.wim.(k)
  done

type factors = {
  pinv : int array;
  q : int array;
  lp : int array;
  li : int array;
  lre : float array;
  lim : float array;
  up : int array;
  ui : int array;
  ure : float array;
  uim : float array;
}

let factors ws =
  if not ws.factored then invalid_arg "Spclu.factors: not factored";
  {
    pinv = Array.copy ws.pinv;
    q = Array.copy ws.q;
    lp = Array.copy ws.lp;
    li = Array.sub ws.li 0 ws.lnz;
    lre = Array.sub ws.lre 0 ws.lnz;
    lim = Array.sub ws.lim 0 ws.lnz;
    up = Array.copy ws.up;
    ui = Array.sub ws.ui 0 ws.unz;
    ure = Array.sub ws.ure 0 ws.unz;
    uim = Array.sub ws.uim 0 ws.unz;
  }

let solve ws b =
  let x = Array.make (Array.length b) Cx.zero in
  solve_into ws b x;
  x
