exception No_convergence

(* The three stages run in place on the caller's matrix, reading and
   writing its flat row-major storage. Per entry the arithmetic and its
   order are those of the copying formulation they replaced (kept as the
   test oracle [Oracle.Eig_ref]), so results agree bit for bit; the loops
   carry their float state in locals instead of escaping refs, and the
   only allocation is the output array. *)

let[@inline] get (d : float array) n i j = Array.unsafe_get d ((i * n) + j)

let[@inline] set (d : float array) n i j (x : float) =
  Array.unsafe_set d ((i * n) + j) x

(* Parlett-Reinsch balancing: repeated diagonal similarity transforms with
   powers of the radix so that row and column norms match. *)
let balance a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.balance: matrix not square";
  let d = Mat.unsafe_data a in
  let radix = 2.0 in
  let radix2 = radix *. radix in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for i = 0 to n - 1 do
      let r = ref 0.0 and c = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          r := !r +. Float.abs (get d n i j);
          c := !c +. Float.abs (get d n j i)
        end
      done;
      (* a non-finite off-diagonal norm has no power-of-radix balance:
         scaling inf by the radix never meets the bound, so such a row
         and column are left as they are *)
      if !c <> 0.0 && !r <> 0.0 && Float.is_finite !c && Float.is_finite !r
      then begin
        let g = ref (!r /. radix) and f = ref 1.0 in
        let s = !c +. !r in
        while !c < !g do
          f := !f *. radix;
          c := !c *. radix2
        done;
        g := !r *. radix;
        while !c > !g do
          f := !f /. radix;
          c := !c /. radix2
        done;
        if (!c +. !r) /. !f < 0.95 *. s then begin
          continue_ := true;
          let inv_f = 1.0 /. !f in
          for j = 0 to n - 1 do
            set d n i j (get d n i j *. inv_f)
          done;
          for j = 0 to n - 1 do
            set d n j i (get d n j i *. !f)
          done
        end
      end
    done
  done

(* Householder similarity reduction to upper Hessenberg form. The
   reflector of step k is kept in column k below the diagonal: that
   column is assigned (alpha, 0, ..., 0) once the step is done, so the
   left update skips it and the right update never touches it. *)
let hessenberg a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.hessenberg: matrix not square";
  let d = Mat.unsafe_data a in
  for k = 0 to n - 3 do
    let nrm = ref 0.0 in
    for i = k + 1 to n - 1 do
      let x = get d n i k in
      nrm := !nrm +. (x *. x)
    done;
    let nrm = sqrt !nrm in
    if nrm > 0.0 then begin
      let x0 = get d n (k + 1) k in
      let alpha = if x0 >= 0.0 then -.nrm else nrm in
      let vtv = ref 0.0 in
      set d n (k + 1) k (x0 -. alpha);
      for i = k + 1 to n - 1 do
        let v = get d n i k in
        vtv := !vtv +. (v *. v)
      done;
      if !vtv > 0.0 then begin
        let beta = 2.0 /. !vtv in
        (* left: A <- (I - beta v vT) A on rows k+1..n-1 *)
        for j = k + 1 to n - 1 do
          let dot = ref 0.0 in
          for i = k + 1 to n - 1 do
            dot := !dot +. (get d n i k *. get d n i j)
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for i = k + 1 to n - 1 do
              set d n i j (get d n i j -. (s *. get d n i k))
            done
        done;
        (* right: A <- A (I - beta v vT) on cols k+1..n-1 *)
        for i = 0 to n - 1 do
          let dot = ref 0.0 in
          for j = k + 1 to n - 1 do
            dot := !dot +. (get d n i j *. get d n j k)
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for j = k + 1 to n - 1 do
              set d n i j (get d n i j -. (s *. get d n j k))
            done
        done;
        (* zero out the annihilated entries exactly *)
        set d n (k + 1) k alpha;
        for i = k + 2 to n - 1 do
          set d n i k 0.0
        done
      end
      else
        (* no reflection: put back the one entry the reflector changed *)
        set d n (k + 1) k x0
    end
  done

let[@inline] sign_of x y = if y >= 0.0 then Float.abs x else -.Float.abs x

(* Francis implicit double-shift QR on an upper Hessenberg matrix,
   eigenvalues only. Follows the classic EISPACK [hqr] control flow,
   translated to 0-based indexing, with exceptional shifts every 10
   iterations and a hard budget of 40 per eigenvalue. *)
let hqr a =
  let n = Mat.rows a in
  let d = Mat.unsafe_data a in
  let out = Array.make n Complex.zero in
  let eps = epsilon_float in
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    for j = Stdlib.max (i - 1) 0 to n - 1 do
      anorm := !anorm +. Float.abs (get d n i j)
    done
  done;
  if !anorm = 0.0 then anorm := 1.0;
  let nn = ref (n - 1) in
  let t = ref 0.0 in
  while !nn >= 0 do
    let its = ref 0 in
    let finished_block = ref false in
    while not !finished_block do
      (* find l: smallest index of the active block *)
      let l = ref 0 in
      let ll = ref !nn in
      while !ll >= 1 do
        let s0 =
          Float.abs (get d n (!ll - 1) (!ll - 1)) +. Float.abs (get d n !ll !ll)
        in
        let s = if s0 = 0.0 then !anorm else s0 in
        if Float.abs (get d n !ll (!ll - 1)) <= eps *. s then begin
          set d n !ll (!ll - 1) 0.0;
          l := !ll;
          ll := 0
        end
        else decr ll
      done;
      let x = ref (get d n !nn !nn) in
      if !l = !nn then begin
        (* one real eigenvalue *)
        out.(!nn) <- { Complex.re = !x +. !t; im = 0.0 };
        decr nn;
        finished_block := true
      end
      else begin
        let y = ref (get d n (!nn - 1) (!nn - 1)) in
        let w = ref (get d n !nn (!nn - 1) *. get d n (!nn - 1) !nn) in
        if !l = !nn - 1 then begin
          (* 2x2 block: a pair of eigenvalues *)
          let p = 0.5 *. (!y -. !x) in
          let q = (p *. p) +. !w in
          let z = sqrt (Float.abs q) in
          let x' = !x +. !t in
          if q >= 0.0 then begin
            let z = p +. sign_of z p in
            out.(!nn - 1) <- { Complex.re = x' +. z; im = 0.0 };
            out.(!nn) <-
              {
                Complex.re = (if z <> 0.0 then x' -. (!w /. z) else x' +. z);
                im = 0.0;
              }
          end
          else begin
            out.(!nn - 1) <- { Complex.re = x' +. p; im = -.z };
            out.(!nn) <- { Complex.re = x' +. p; im = z }
          end;
          nn := !nn - 2;
          finished_block := true
        end
        else begin
          if !its = 40 then raise No_convergence;
          if !its = 10 || !its = 20 || !its = 30 then begin
            (* exceptional shift *)
            t := !t +. !x;
            for i = 0 to !nn do
              set d n i i (get d n i i -. !x)
            done;
            let s =
              Float.abs (get d n !nn (!nn - 1))
              +. Float.abs (get d n (!nn - 1) (!nn - 2))
            in
            x := 0.75 *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* find two consecutive small subdiagonal elements *)
          let m = ref (!nn - 2) in
          let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
          let searching = ref true in
          while !searching && !m >= !l do
            let z = get d n !m !m in
            let rr = !x -. z in
            let ss = !y -. z in
            p :=
              (((rr *. ss) -. !w) /. get d n (!m + 1) !m)
              +. get d n !m (!m + 1);
            q := get d n (!m + 1) (!m + 1) -. z -. rr -. ss;
            r := get d n (!m + 2) (!m + 1);
            let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
            p := !p /. s;
            q := !q /. s;
            r := !r /. s;
            if !m = !l then searching := false
            else begin
              let u =
                Float.abs (get d n !m (!m - 1)) *. (Float.abs !q +. Float.abs !r)
              in
              let v =
                Float.abs !p
                *. (Float.abs (get d n (!m - 1) (!m - 1))
                   +. Float.abs z
                   +. Float.abs (get d n (!m + 1) (!m + 1)))
              in
              if u <= eps *. v then searching := false else decr m
            end
          done;
          for i = !m + 2 to !nn do
            set d n i (i - 2) 0.0;
            if i <> !m + 2 then set d n i (i - 3) 0.0
          done;
          (* double QR sweep over rows l..nn, bulge chase from m *)
          for k = !m to !nn - 1 do
            if k <> !m then begin
              p := get d n k (k - 1);
              q := get d n (k + 1) (k - 1);
              r := (if k <> !nn - 1 then get d n (k + 2) (k - 1) else 0.0);
              let xs = Float.abs !p +. Float.abs !q +. Float.abs !r in
              x := xs;
              if xs <> 0.0 then begin
                p := !p /. xs;
                q := !q /. xs;
                r := !r /. xs
              end
            end;
            let s = sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
            if s <> 0.0 then begin
              if k = !m then begin
                if !l <> !m then set d n k (k - 1) (-.get d n k (k - 1))
              end
              else set d n k (k - 1) (-.s *. !x);
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !r /. s in
              q := !q /. !p;
              r := !r /. !p;
              (* row modification *)
              for j = k to !nn do
                let pp = ref (get d n k j +. (!q *. get d n (k + 1) j)) in
                if k <> !nn - 1 then begin
                  pp := !pp +. (!r *. get d n (k + 2) j);
                  set d n (k + 2) j (get d n (k + 2) j -. (!pp *. z))
                end;
                set d n (k + 1) j (get d n (k + 1) j -. (!pp *. !y));
                set d n k j (get d n k j -. (!pp *. !x))
              done;
              (* column modification *)
              let mmin = Stdlib.min !nn (k + 3) in
              for i = !l to mmin do
                let pp = ref ((!x *. get d n i k) +. (!y *. get d n i (k + 1))) in
                if k <> !nn - 1 then begin
                  pp := !pp +. (z *. get d n i (k + 2));
                  set d n i (k + 2) (get d n i (k + 2) -. (!pp *. !r))
                end;
                set d n i (k + 1) (get d n i (k + 1) -. (!pp *. !q));
                set d n i k (get d n i k -. !pp)
              done
            end
          done
        end
      end
    done
  done;
  out

let eigenvalues a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.eigenvalues: matrix not square";
  if n = 0 then [||]
  else if n = 1 then [| Cx.re (Mat.get a 0 0) |]
  else begin
    balance a;
    hessenberg a;
    hqr a
  end

let companion coeffs =
  let n = Array.length coeffs in
  Mat.init n n (fun i j ->
      if j = n - 1 then -.coeffs.(i) else if i = j + 1 then 1.0 else 0.0)

let poly_roots coeffs =
  (* strip leading zeros of the highest-degree side *)
  let deg = ref (Array.length coeffs - 1) in
  while !deg > 0 && coeffs.(!deg) = 0.0 do
    decr deg
  done;
  if !deg <= 0 then [||]
  else begin
    let an = coeffs.(!deg) in
    let monic = Array.init !deg (fun k -> coeffs.(k) /. an) in
    eigenvalues (companion monic)
  end
