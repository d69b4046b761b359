type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~compare () = { compare; data = [||]; size = 0 }

let size h = h.size

let is_empty h = h.size = 0

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let push h x =
  if h.size = Array.length h.data then begin
    let cap = max 16 (2 * h.size) in
    let bigger = Array.make cap x in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && h.compare h.data.((!i - 1) / 2) h.data.(!i) > 0 do
    swap h ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let next = ref !i in
      if l < h.size && h.compare h.data.(l) h.data.(!next) < 0 then next := l;
      if r < h.size && h.compare h.data.(r) h.data.(!next) < 0 then next := r;
      if !next = !i then continue := false
      else begin
        swap h !i !next;
        i := !next
      end
    done;
    Some top
  end
