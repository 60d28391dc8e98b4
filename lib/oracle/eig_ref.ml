(* The copying eigenvalue pipeline that [Linalg.Eig] ran before it moved
   to in place: balance and hessenberg each work on a fresh copy, the
   QR iteration threads its state through refs and [Exit], and the
   eigenvalues go through separate real/imaginary arrays. Kept operation
   for operation as the bitwise reference for the in-place kernel. *)

(* Parlett-Reinsch balancing: repeated diagonal similarity transforms with
   powers of the radix so that row and column norms match. *)
let balance a =
  let n = Linalg.Mat.rows a in
  let a = Linalg.Mat.copy a in
  let radix = 2.0 in
  let radix2 = radix *. radix in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for i = 0 to n - 1 do
      let r = ref 0.0 and c = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          r := !r +. Float.abs (Linalg.Mat.get a i j);
          c := !c +. Float.abs (Linalg.Mat.get a j i)
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
            Linalg.Mat.set a i j (Linalg.Mat.get a i j *. inv_f)
          done;
          for j = 0 to n - 1 do
            Linalg.Mat.set a j i (Linalg.Mat.get a j i *. !f)
          done
        end
      end
    done
  done;
  a

(* Householder similarity reduction to upper Hessenberg form. *)
let hessenberg a =
  let n = Linalg.Mat.rows a in
  let a = Linalg.Mat.copy a in
  let v = Array.make n 0.0 in
  for k = 0 to n - 3 do
    let nrm = ref 0.0 in
    for i = k + 1 to n - 1 do
      let x = Linalg.Mat.get a i k in
      nrm := !nrm +. (x *. x)
    done;
    let nrm = sqrt !nrm in
    if nrm > 0.0 then begin
      let x0 = Linalg.Mat.get a (k + 1) k in
      let alpha = if x0 >= 0.0 then -.nrm else nrm in
      let vtv = ref 0.0 in
      for i = k + 1 to n - 1 do
        v.(i) <- Linalg.Mat.get a i k;
        if i = k + 1 then v.(i) <- v.(i) -. alpha;
        vtv := !vtv +. (v.(i) *. v.(i))
      done;
      if !vtv > 0.0 then begin
        let beta = 2.0 /. !vtv in
        (* left: A <- (I - beta v vT) A on rows k+1..n-1 *)
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = k + 1 to n - 1 do
            dot := !dot +. (v.(i) *. Linalg.Mat.get a i j)
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for i = k + 1 to n - 1 do
              Linalg.Mat.set a i j (Linalg.Mat.get a i j -. (s *. v.(i)))
            done
        done;
        (* right: A <- A (I - beta v vT) on cols k+1..n-1 *)
        for i = 0 to n - 1 do
          let dot = ref 0.0 in
          for j = k + 1 to n - 1 do
            dot := !dot +. (Linalg.Mat.get a i j *. v.(j))
          done;
          let s = beta *. !dot in
          if s <> 0.0 then
            for j = k + 1 to n - 1 do
              Linalg.Mat.set a i j (Linalg.Mat.get a i j -. (s *. v.(j)))
            done
        done;
        (* zero out the annihilated entries exactly *)
        Linalg.Mat.set a (k + 1) k alpha;
        for i = k + 2 to n - 1 do
          Linalg.Mat.set a i k 0.0
        done
      end
    end
  done;
  a

let sign_of x y = if y >= 0.0 then Float.abs x else -.Float.abs x

(* Francis implicit double-shift QR on an upper Hessenberg matrix,
   eigenvalues only. Follows the classic EISPACK [hqr] control flow,
   translated to 0-based indexing, with exceptional shifts every 10
   iterations and a hard budget of 40 per eigenvalue. *)
let hqr a =
  let n = Linalg.Mat.rows a in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  if n = 0 then [||]
  else begin
    let eps = epsilon_float in
    let anorm = ref 0.0 in
    for i = 0 to n - 1 do
      for j = Stdlib.max (i - 1) 0 to n - 1 do
        anorm := !anorm +. Float.abs (Linalg.Mat.get a i j)
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
        (try
           for ll = !nn downto 1 do
             let s =
               let s0 =
                 Float.abs (Linalg.Mat.get a (ll - 1) (ll - 1))
                 +. Float.abs (Linalg.Mat.get a ll ll)
               in
               if s0 = 0.0 then !anorm else s0
             in
             if Float.abs (Linalg.Mat.get a ll (ll - 1)) <= eps *. s then begin
               Linalg.Mat.set a ll (ll - 1) 0.0;
               l := ll;
               raise Exit
             end
           done
         with Exit -> ());
        let x = ref (Linalg.Mat.get a !nn !nn) in
        if !l = !nn then begin
          (* one real eigenvalue *)
          wr.(!nn) <- !x +. !t;
          wi.(!nn) <- 0.0;
          decr nn;
          finished_block := true
        end
        else begin
          let y = ref (Linalg.Mat.get a (!nn - 1) (!nn - 1)) in
          let w = ref (Linalg.Mat.get a !nn (!nn - 1) *. Linalg.Mat.get a (!nn - 1) !nn) in
          if !l = !nn - 1 then begin
            (* 2x2 block: a pair of eigenvalues *)
            let p = 0.5 *. (!y -. !x) in
            let q = (p *. p) +. !w in
            let z = sqrt (Float.abs q) in
            let x' = !x +. !t in
            if q >= 0.0 then begin
              let z = p +. sign_of z p in
              wr.(!nn - 1) <- x' +. z;
              wr.(!nn) <- (if z <> 0.0 then x' -. (!w /. z) else x' +. z);
              wi.(!nn - 1) <- 0.0;
              wi.(!nn) <- 0.0
            end
            else begin
              wr.(!nn - 1) <- x' +. p;
              wr.(!nn) <- x' +. p;
              wi.(!nn) <- z;
              wi.(!nn - 1) <- -.z
            end;
            nn := !nn - 2;
            finished_block := true
          end
          else begin
            if !its = 40 then raise Linalg.Eig.No_convergence;
            if !its = 10 || !its = 20 || !its = 30 then begin
              (* exceptional shift *)
              t := !t +. !x;
              for i = 0 to !nn do
                Linalg.Mat.set a i i (Linalg.Mat.get a i i -. !x)
              done;
              let s =
                Float.abs (Linalg.Mat.get a !nn (!nn - 1))
                +. Float.abs (Linalg.Mat.get a (!nn - 1) (!nn - 2))
              in
              x := 0.75 *. s;
              y := !x;
              w := -0.4375 *. s *. s
            end;
            incr its;
            (* find two consecutive small subdiagonal elements *)
            let m = ref (!nn - 2) in
            let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
            (try
               while !m >= !l do
                 let z = Linalg.Mat.get a !m !m in
                 let rr = !x -. z in
                 let ss = !y -. z in
                 p :=
                   (((rr *. ss) -. !w) /. Linalg.Mat.get a (!m + 1) !m)
                   +. Linalg.Mat.get a !m (!m + 1);
                 q := Linalg.Mat.get a (!m + 1) (!m + 1) -. z -. rr -. ss;
                 r := Linalg.Mat.get a (!m + 2) (!m + 1);
                 let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
                 p := !p /. s;
                 q := !q /. s;
                 r := !r /. s;
                 if !m = !l then raise Exit;
                 let u =
                   Float.abs (Linalg.Mat.get a !m (!m - 1))
                   *. (Float.abs !q +. Float.abs !r)
                 in
                 let v =
                   Float.abs !p
                   *. (Float.abs (Linalg.Mat.get a (!m - 1) (!m - 1))
                      +. Float.abs z
                      +. Float.abs (Linalg.Mat.get a (!m + 1) (!m + 1)))
                 in
                 if u <= eps *. v then raise Exit;
                 decr m
               done
             with Exit -> ());
            for i = !m + 2 to !nn do
              Linalg.Mat.set a i (i - 2) 0.0;
              if i <> !m + 2 then Linalg.Mat.set a i (i - 3) 0.0
            done;
            (* double QR sweep over rows l..nn, bulge chase from m *)
            for k = !m to !nn - 1 do
              if k <> !m then begin
                p := Linalg.Mat.get a k (k - 1);
                q := Linalg.Mat.get a (k + 1) (k - 1);
                r := (if k <> !nn - 1 then Linalg.Mat.get a (k + 2) (k - 1) else 0.0);
                let xs = Float.abs !p +. Float.abs !q +. Float.abs !r in
                x := xs;
                if xs <> 0.0 then begin
                  p := !p /. xs;
                  q := !q /. xs;
                  r := !r /. xs
                end
              end;
              let s =
                sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p
              in
              if s <> 0.0 then begin
                if k = !m then begin
                  if !l <> !m then Linalg.Mat.set a k (k - 1) (-.Linalg.Mat.get a k (k - 1))
                end
                else Linalg.Mat.set a k (k - 1) (-.s *. !x);
                p := !p +. s;
                x := !p /. s;
                y := !q /. s;
                let z = !r /. s in
                q := !q /. !p;
                r := !r /. !p;
                (* row modification *)
                for j = k to !nn do
                  let pp = ref (Linalg.Mat.get a k j +. (!q *. Linalg.Mat.get a (k + 1) j)) in
                  if k <> !nn - 1 then begin
                    pp := !pp +. (!r *. Linalg.Mat.get a (k + 2) j);
                    Linalg.Mat.set a (k + 2) j (Linalg.Mat.get a (k + 2) j -. (!pp *. z))
                  end;
                  Linalg.Mat.set a (k + 1) j (Linalg.Mat.get a (k + 1) j -. (!pp *. !y));
                  Linalg.Mat.set a k j (Linalg.Mat.get a k j -. (!pp *. !x))
                done;
                (* column modification *)
                let mmin = Stdlib.min !nn (k + 3) in
                for i = !l to mmin do
                  let pp =
                    ref ((!x *. Linalg.Mat.get a i k) +. (!y *. Linalg.Mat.get a i (k + 1)))
                  in
                  if k <> !nn - 1 then begin
                    pp := !pp +. (z *. Linalg.Mat.get a i (k + 2));
                    Linalg.Mat.set a i (k + 2) (Linalg.Mat.get a i (k + 2) -. (!pp *. !r))
                  end;
                  Linalg.Mat.set a i (k + 1) (Linalg.Mat.get a i (k + 1) -. (!pp *. !q));
                  Linalg.Mat.set a i k (Linalg.Mat.get a i k -. !pp)
                done
              end
            done
          end
        end
      done
    done;
    Array.init n (fun k -> Linalg.Cx.make wr.(k) wi.(k))
  end

let eigenvalues a =
  let n = Linalg.Mat.rows a in
  if Linalg.Mat.cols a <> n then invalid_arg "Eig.eigenvalues: matrix not square";
  if n = 0 then [||]
  else if n = 1 then [| Linalg.Cx.re (Linalg.Mat.get a 0 0) |]
  else hqr (hessenberg (balance a))
