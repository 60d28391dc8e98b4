type t = {
  n : int;
  reach : int array;
  stack : int array;
  pstack : int array;
  mark : int array;
  rptr : int array;
  mutable rlist : int array;
  rpiv : int array;
  mutable recorded : bool;
}

exception Repivot

let create n ~cap =
  {
    n;
    reach = Array.make n 0;
    stack = Array.make n 0;
    pstack = Array.make n 0;
    mark = Array.make n (-1);
    rptr = Array.make (n + 1) 0;
    rlist = Array.make (max cap n) 0;
    rpiv = Array.make n (-1);
    recorded = false;
  }

let start_search sym =
  sym.recorded <- false;
  Array.fill sym.mark 0 sym.n (-1)

let finish_search sym = sym.recorded <- true

(* L column of an already-pivotal row j: its entries after the unit
   diagonal; an empty range while j is not pivotal *)
let[@inline] l_start ~lp ~pinv j = if pinv.(j) < 0 then 0 else lp.(pinv.(j)) + 1
let[@inline] l_end ~lp ~pinv j = if pinv.(j) < 0 then 0 else lp.(pinv.(j) + 1)

let grow_rlist sym ~used ~need =
  let a = Array.make (max need (2 * Array.length sym.rlist)) 0 in
  Array.blit sym.rlist 0 a 0 used;
  sym.rlist <- a
[@@inline never]

(* depth-first reach of column [col]'s pattern through the columns of L
   factored so far; fills reach.(top..n-1) in reverse postorder
   (ancestors first), the update order the numeric triangular solve
   needs, then appends that range to the recording *)
let search_column sym (pat : Sp.pattern) ~li ~lp ~pinv ~col ~k =
  let top = ref sym.n in
  for p = pat.Sp.colptr.(col) to pat.Sp.colptr.(col + 1) - 1 do
    let j0 = pat.Sp.rowind.(p) in
    if sym.mark.(j0) <> k then begin
      let head = ref 0 in
      sym.stack.(0) <- j0;
      sym.mark.(j0) <- k;
      sym.pstack.(0) <- l_start ~lp ~pinv j0;
      while !head >= 0 do
        let j = sym.stack.(!head) in
        let pend = l_end ~lp ~pinv j in
        let p = ref sym.pstack.(!head) in
        let pushed = ref false in
        while (not !pushed) && !p < pend do
          let i = li.(!p) in
          incr p;
          if sym.mark.(i) <> k then begin
            sym.mark.(i) <- k;
            sym.pstack.(!head) <- !p;
            incr head;
            sym.stack.(!head) <- i;
            sym.pstack.(!head) <- l_start ~lp ~pinv i;
            pushed := true
          end
        done;
        if not !pushed then begin
          decr head;
          decr top;
          sym.reach.(!top) <- j
        end
      done
    end
  done;
  let len = sym.n - !top and base = sym.rptr.(k) in
  if base + len > Array.length sym.rlist then
    grow_rlist sym ~used:base ~need:(base + len);
  Array.blit sym.reach !top sym.rlist base len;
  sym.rptr.(k + 1) <- base + len
