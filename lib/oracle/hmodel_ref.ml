(* The closure-based Hammerstein simulation loop that Hmodel.simulate ran
   before it compiled static stages into a shared-basis plan, kept
   operation for operation. Test oracle only. *)

open Hammerstein
open Hmodel

(* Per-branch trapezoidal update state. *)
type branch_state = {
  mutable y1 : float;
  mutable y2 : float;  (* unused for first-order *)
  mutable v1 : float;
  mutable v2 : float;
}

let simulate t ~u ~t_stop ~dt =
  if dt <= 0.0 || t_stop <= 0.0 then
    invalid_arg "Hmodel.simulate: dt and t_stop must be > 0";
  let steps = Stdlib.max 1 (int_of_float (Float.ceil ((t_stop /. dt) -. 1e-9))) in
  let nb = Array.length t.branches in
  let states =
    Array.init nb (fun k ->
        (* DC steady state at u(0): ẏ = 0 *)
        let x0 = u 0.0 in
        match t.branches.(k) with
        | First_order { a; f } ->
            let v = f.Static_fn.eval x0 in
            { y1 = -.v /. a; y2 = 0.0; v1 = v; v2 = 0.0 }
        | Second_order { alpha; beta; f1; f2 } ->
            let v1 = f1.Static_fn.eval x0 and v2 = f2.Static_fn.eval x0 in
            (* y = −A⁻¹ v, A = [α β; −β α], A⁻¹ = [α −β; β α]/(α²+β²) *)
            let det = (alpha *. alpha) +. (beta *. beta) in
            {
              y1 = -.((alpha *. v1) -. (beta *. v2)) /. det;
              y2 = -.((beta *. v1) +. (alpha *. v2)) /. det;
              v1;
              v2;
            })
  in
  let times = Array.make (steps + 1) 0.0 in
  let values = Array.make (steps + 1) 0.0 in
  let output time =
    let acc = ref (t.static_path.Static_fn.eval (u time)) in
    Array.iteri
      (fun k b ->
        let st = states.(k) in
        match b with
        | First_order _ -> acc := !acc +. st.y1
        | Second_order _ -> acc := !acc +. st.y1 +. st.y2)
      t.branches;
    !acc
  in
  values.(0) <- output 0.0;
  for k = 1 to steps do
    let time = Float.min (float_of_int k *. dt) t_stop in
    let h = time -. times.(k - 1) in
    let x = u time in
    Array.iteri
      (fun bi b ->
        let st = states.(bi) in
        match b with
        | First_order { a; f } ->
            let v_new = f.Static_fn.eval x in
            let num = ((1.0 +. (0.5 *. h *. a)) *. st.y1)
                      +. (0.5 *. h *. (st.v1 +. v_new)) in
            st.y1 <- num /. (1.0 -. (0.5 *. h *. a));
            st.v1 <- v_new
        | Second_order { alpha; beta; f1; f2 } ->
            let v1n = f1.Static_fn.eval x and v2n = f2.Static_fn.eval x in
            (* rhs = (I + hA/2) y + h/2 (v_old + v_new) *)
            let ha = 0.5 *. h *. alpha and hb = 0.5 *. h *. beta in
            let r1 =
              ((1.0 +. ha) *. st.y1) +. (hb *. st.y2)
              +. (0.5 *. h *. (st.v1 +. v1n))
            in
            let r2 =
              (-.hb *. st.y1) +. ((1.0 +. ha) *. st.y2)
              +. (0.5 *. h *. (st.v2 +. v2n))
            in
            (* M = I − hA/2 = [1−ha, −hb; hb, 1−ha] *)
            let m11 = 1.0 -. ha and m12 = -.hb in
            let det = (m11 *. m11) +. (hb *. hb) in
            st.y1 <- ((m11 *. r1) -. (m12 *. r2)) /. det;
            st.y2 <- ((m11 *. r2) +. (m12 *. r1)) /. det;
            st.v1 <- v1n;
            st.v2 <- v2n)
      t.branches;
    times.(k) <- time;
    values.(k) <- output time
  done;
  Signal.Waveform.make times values
