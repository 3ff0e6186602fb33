type 'a entry = { e_time : float; e_key : int; e_seq : int; e_v : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* entries [0 .. len-1] form the heap *)
  mutable len : int;
  mutable seq : int;  (* pushes so far: the next entry's sequence number *)
}

let create () = { heap = [||]; len = 0; seq = 0 }

(* Lexicographic (time, key, seq): seq is unique, so this is a total
   order and equal-priority entries pop in push order. *)
let less a b =
  a.e_time < b.e_time
  || (a.e_time = b.e_time
      && (a.e_key < b.e_key || (a.e_key = b.e_key && a.e_seq < b.e_seq)))

let swap h i j =
  let t = h.heap.(i) in
  h.heap.(i) <- h.heap.(j);
  h.heap.(j) <- t

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.heap.(i) h.heap.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h.heap.(l) h.heap.(!smallest) then smallest := l;
  if r < h.len && less h.heap.(r) h.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ?(key = 0) ~time v =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let e = { e_time = time; e_key = key; e_seq = h.seq; e_v = v } in
  h.seq <- h.seq + 1;
  if h.len = Array.length h.heap then begin
    let cap = max 8 (2 * h.len) in
    let grown = Array.make cap e in
    Array.blit h.heap 0 grown 0 h.len;
    h.heap <- grown
  end;
  h.heap.(h.len) <- e;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek h = if h.len = 0 then None else Some (h.heap.(0).e_time, h.heap.(0).e_v)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.heap.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.heap.(0) <- h.heap.(h.len);
      sift_down h 0
    end;
    Some (top.e_time, top.e_v)
  end

let drain h =
  let rec go acc = match pop h with None -> List.rev acc | Some e -> go (e :: acc) in
  go []
