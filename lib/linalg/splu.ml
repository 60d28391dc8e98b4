exception Singular of { pivot_index : int; magnitude : float }

let () =
  Printexc.register_printer (function
    | Singular { pivot_index; magnitude } ->
        Some
          (Printf.sprintf "Splu.Singular: pivot %d has magnitude %.3e"
             pivot_index magnitude)
    | _ -> None)

(* same floor as Lu: a denormal pivot magnitude overflows multipliers *)
let tiny_pivot = 1e-300

(* Keeping the diagonal when it is within this factor of the column
   maximum preserves the fill predicted by the minimum-degree ordering;
   anything smaller falls back to the true column maximum (partial
   pivoting), trading fill for stability. *)
let diag_threshold = 0.1

type t = {
  n : int;
  pat : Sp.pattern;  (* identity key: factor_into requires a.pat == pat *)
  q : int array;  (* fill-reducing column order *)
  pinv : int array;  (* original row -> pivot position *)
  (* L and U in CSC over pivot coordinates; L has a leading unit
     diagonal per column, U a trailing diagonal. Growable. *)
  lp : int array;
  up : int array;
  mutable li : int array;
  mutable lx : float array;
  mutable lnz : int;
  mutable ui : int array;
  mutable ux : float array;
  mutable unz : int;
  (* scatter workspace: x all-zero between columns *)
  x : float array;
  w : float array;  (* solve scratch *)
  sym : Spsym.t;  (* reach search scratch + replayable recording *)
  mutable factored : bool;
}

let workspace (pat : Sp.pattern) =
  if pat.Sp.nrows <> pat.Sp.ncols then
    invalid_arg "Splu.workspace: pattern not square";
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
    lx = Array.make cap 0.0;
    lnz = 0;
    ui = Array.make cap 0;
    ux = Array.make cap 0.0;
    unz = 0;
    x = Array.make n 0.0;
    w = Array.make n 0.0;
    sym = Spsym.create n ~cap;
    factored = false;
  }

let ws_matches ws (pat : Sp.pattern) = ws.pat == pat
let lu_nnz ws = ws.lnz + ws.unz

(* capacity doubling stays out of line so the inlined pushes take
   their float argument unboxed *)
let grow_l ws =
  let c = 2 * ws.lnz in
  let ni = Array.make c 0 and nx = Array.make c 0.0 in
  Array.blit ws.li 0 ni 0 ws.lnz;
  Array.blit ws.lx 0 nx 0 ws.lnz;
  ws.li <- ni;
  ws.lx <- nx
[@@inline never]

let grow_u ws =
  let c = 2 * ws.unz in
  let ni = Array.make c 0 and nx = Array.make c 0.0 in
  Array.blit ws.ui 0 ni 0 ws.unz;
  Array.blit ws.ux 0 nx 0 ws.unz;
  ws.ui <- ni;
  ws.ux <- nx
[@@inline never]

let[@inline] push_l ws i v =
  if ws.lnz = Array.length ws.li then grow_l ws;
  ws.li.(ws.lnz) <- i;
  ws.lx.(ws.lnz) <- v;
  ws.lnz <- ws.lnz + 1

let[@inline] push_u ws i v =
  if ws.unz = Array.length ws.ui then grow_u ws;
  ws.ui.(ws.unz) <- i;
  ws.ux.(ws.unz) <- v;
  ws.unz <- ws.unz + 1

(* one numeric factorization. With [replay] the recorded reaches stand
   in for the depth-first search and every pivot must match its
   recording (else Spsym.Repivot); without, each column is searched and
   recorded. Both run the same arithmetic over the same reach order. *)
let numeric ws (a : Sp.t) ~inject ~replay =
  let n = ws.n and sym = ws.sym and x = ws.x in
  ws.lnz <- 0;
  ws.unz <- 0;
  ws.factored <- false;
  Array.fill ws.pinv 0 n (-1);
  if not replay then Spsym.start_search sym;
  let apat = a.Sp.pat in
  for k = 0 to n - 1 do
    ws.lp.(k) <- ws.lnz;
    ws.up.(k) <- ws.unz;
    let col = ws.q.(k) in
    if not replay then
      Spsym.search_column sym apat ~li:ws.li ~lp:ws.lp ~pinv:ws.pinv ~col ~k;
    let r = sym.Spsym.rlist in
    let lo = sym.Spsym.rptr.(k) and hi = sym.Spsym.rptr.(k + 1) - 1 in
    (* scatter A(:,col) and run the sparse triangular solve x = L \ a *)
    for p = lo to hi do
      x.(r.(p)) <- 0.0
    done;
    for p = apat.Sp.colptr.(col) to apat.Sp.colptr.(col + 1) - 1 do
      x.(apat.Sp.rowind.(p)) <- a.Sp.v.(p)
    done;
    for p = lo to hi do
      let j = r.(p) in
      let jq = ws.pinv.(j) in
      if jq >= 0 then begin
        let xj = x.(j) in
        for pp = ws.lp.(jq) + 1 to ws.lp.(jq + 1) - 1 do
          x.(ws.li.(pp)) <- x.(ws.li.(pp)) -. (ws.lx.(pp) *. xj)
        done
      end
    done;
    (* pivot: column max over not-yet-pivotal rows, preferring the
       diagonal when it is within diag_threshold of the max *)
    let ipiv = ref (-1) and amax = ref (-1.0) and diag_open = ref false in
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) < 0 then begin
        if i = col then diag_open := true;
        let t = Float.abs x.(i) in
        if t > !amax then begin
          amax := t;
          ipiv := i
        end
      end
    done;
    if
      !ipiv >= 0 && !diag_open
      && Float.abs x.(col) >= diag_threshold *. !amax
      && Float.abs x.(col) >= tiny_pivot
    then ipiv := col;
    if !ipiv < 0 then raise (Singular { pivot_index = k; magnitude = 0.0 });
    if replay then begin
      if !ipiv <> sym.Spsym.rpiv.(k) then begin
        for p = lo to hi do
          x.(r.(p)) <- 0.0
        done;
        raise Spsym.Repivot
      end
    end
    else sym.Spsym.rpiv.(k) <- !ipiv;
    let pivot = if inject && k = 0 then 0.0 else x.(!ipiv) in
    if Float.abs pivot < tiny_pivot || not (Float.is_finite pivot) then
      raise (Singular { pivot_index = k; magnitude = Float.abs pivot });
    (* gather U (already-pivotal rows), diagonal last *)
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) >= 0 then push_u ws ws.pinv.(i) x.(i)
    done;
    push_u ws k pivot;
    ws.pinv.(!ipiv) <- k;
    (* L column: unit diagonal first, then the multipliers *)
    push_l ws !ipiv 1.0;
    for p = lo to hi do
      let i = r.(p) in
      if ws.pinv.(i) < 0 then push_l ws i (x.(i) /. pivot);
      x.(i) <- 0.0
    done
  done;
  ws.lp.(n) <- ws.lnz;
  ws.up.(n) <- ws.unz;
  (* remap L's row indices into pivot coordinates *)
  for p = 0 to ws.lnz - 1 do
    ws.li.(p) <- ws.pinv.(ws.li.(p))
  done;
  if not replay then Spsym.finish_search ws.sym

let factor_into ?guard ws (a : Sp.t) =
  if not (a.Sp.pat == ws.pat) then
    invalid_arg "Splu.factor_into: matrix pattern does not match workspace";
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
        let d = Float.abs ws.ux.(ws.up.(k + 1) - 1) in
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
  let ws = workspace a.Sp.pat in
  factor_into ?guard ws a;
  ws

let rcond_estimate ws =
  if not ws.factored then 0.0
  else begin
    let mn = ref infinity and mx = ref 0.0 in
    for k = 0 to ws.n - 1 do
      let d = Float.abs ws.ux.(ws.up.(k + 1) - 1) in
      if d < !mn then mn := d;
      if d > !mx then mx := d
    done;
    if !mx = 0.0 || not (Float.is_finite !mx) then 0.0 else !mn /. !mx
  end

let solve_into ws b x =
  if not ws.factored then invalid_arg "Splu.solve_into: not factored";
  let n = ws.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Splu.solve_into: dimension mismatch";
  if b == x then invalid_arg "Splu.solve_into: b and x must not alias";
  let w = ws.w in
  for i = 0 to n - 1 do
    w.(ws.pinv.(i)) <- b.(i)
  done;
  (* forward: L is unit lower triangular in pivot coordinates *)
  for k = 0 to n - 1 do
    let wk = w.(k) in
    for p = ws.lp.(k) + 1 to ws.lp.(k + 1) - 1 do
      w.(ws.li.(p)) <- w.(ws.li.(p)) -. (ws.lx.(p) *. wk)
    done
  done;
  (* backward: U's diagonal is the last entry of each column *)
  for k = n - 1 downto 0 do
    let pd = ws.up.(k + 1) - 1 in
    let wk = w.(k) /. ws.ux.(pd) in
    w.(k) <- wk;
    for p = ws.up.(k) to pd - 1 do
      w.(ws.ui.(p)) <- w.(ws.ui.(p)) -. (ws.ux.(p) *. wk)
    done
  done;
  for k = 0 to n - 1 do
    x.(ws.q.(k)) <- w.(k)
  done

type factors = {
  pinv : int array;
  q : int array;
  lp : int array;
  li : int array;
  lx : float array;
  up : int array;
  ui : int array;
  ux : float array;
}

let factors ws =
  if not ws.factored then invalid_arg "Splu.factors: not factored";
  {
    pinv = Array.copy ws.pinv;
    q = Array.copy ws.q;
    lp = Array.copy ws.lp;
    li = Array.sub ws.li 0 ws.lnz;
    lx = Array.sub ws.lx 0 ws.lnz;
    up = Array.copy ws.up;
    ui = Array.sub ws.ui 0 ws.unz;
    ux = Array.sub ws.ux 0 ws.unz;
  }

let solve ws b =
  let x = Array.make (Array.length b) 0.0 in
  solve_into ws b x;
  x
