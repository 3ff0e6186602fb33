open Dapper_clite
open Cl
open Dapper_ir

(* ----- redis-like key/value store -----
   Open-addressing hash table on the heap: parallel key/value arrays,
   key 0 = empty. Commands (SET/GET/DEL/INCR) come from a deterministic
   generator standing in for networked clients. *)

let redis ?(keys = 4096) ?(ops = 30_000) () =
  let m = create "redis" in
  Cstd.add m;
  let table = 4 * keys in
  global_i64 m "tsize" (Int64.of_int table);
  global m "tkeys" 8;  (* pointer to key array *)
  global m "tvals" 8;
  global m "hits" 8;
  global m "misses" 8;
  global m "dirty" 8;
  func m "hash" [ ("k", Ir.I64) ] (fun b ->
      decl b "h" (mul (v "k") (i64 0x9E3779B97F4A7C15L));
      ret b (band (shr (v "h") (i 17)) (sub (v "tsize") (i 1))));
  (* find the slot for key k (or its insertion point); linear probing *)
  func m "slot_of" [ ("k", Ir.I64) ] (fun b ->
      decl b "s" (call "hash" [ v "k" ]);
      while_ b (i 1) (fun b ->
          decl b "cur" (idx (v "tkeys") (v "s"));
          if_ b (bor (eq (v "cur") (v "k")) (eq (v "cur") (i 0))) (fun b ->
              ret b (v "s"));
          set b "s" (band (add (v "s") (i 1)) (sub (v "tsize") (i 1))));
      ret b (i 0));
  func m "cmd_set" [ ("k", Ir.I64); ("value", Ir.I64) ] (fun b ->
      decl b "s" (call "slot_of" [ v "k" ]);
      store_idx b (v "tkeys") (v "s") (v "k");
      store_idx b (v "tvals") (v "s") (v "value");
      set b "dirty" (add (v "dirty") (i 1));
      ret b (i 0));
  func m "cmd_get" [ ("k", Ir.I64) ] (fun b ->
      decl b "s" (call "slot_of" [ v "k" ]);
      if_ b (eq (idx (v "tkeys") (v "s")) (v "k")) (fun b ->
          set b "hits" (add (v "hits") (i 1));
          ret b (idx (v "tvals") (v "s")));
      set b "misses" (add (v "misses") (i 1));
      ret b (i (-1)));
  func m "cmd_incr" [ ("k", Ir.I64) ] (fun b ->
      decl b "s" (call "slot_of" [ v "k" ]);
      if_ b (eq (idx (v "tkeys") (v "s")) (v "k")) (fun b ->
          store_idx b (v "tvals") (v "s") (add (idx (v "tvals") (v "s")) (i 1));
          ret b (idx (v "tvals") (v "s")));
      do_ b (call "cmd_set" [ v "k"; i 1 ]);
      ret b (i 1));
  func m "serve_one" [ ("op", Ir.I64); ("k", Ir.I64); ("value", Ir.I64) ] (fun b ->
      if_ b (lt (v "op") (i 6)) (fun b -> ret b (call "cmd_get" [ v "k" ]));
      if_ b (lt (v "op") (i 9)) (fun b -> ret b (call "cmd_set" [ v "k"; v "value" ]));
      ret b (call "cmd_incr" [ v "k" ]));
  func m "main" [] (fun b ->
      set b "tkeys" (call "sbrk" [ mul (v "tsize") (i 8) ]);
      set b "tvals" (call "sbrk" [ mul (v "tsize") (i 8) ]);
      do_ b (call "rand_seed" [ i 6379 ]);
      (* prefill: the in-memory database (drives checkpoint size) *)
      for_ b "k" (i 1) (i (keys + 1)) (fun b ->
          do_ b (call "cmd_set" [ v "k"; mul (v "k") (i 3) ]));
      for_ b "o" (i 0) (i ops) (fun b ->
          decl b "op" (rem_ (call "rand_next" []) (i 10));
          decl b "key" (add (i 1) (rem_ (call "rand_next" []) (i (2 * keys))));
          do_ b (call "serve_one" [ v "op"; v "key"; v "o" ]));
      Cstd.print b m "REDIS hits=";
      do_ b (call "print_int" [ v "hits" ]);
      Cstd.print b m " misses=";
      do_ b (call "print_int" [ v "misses" ]);
      Cstd.print b m " dirty=";
      do_ b (call "print_int" [ v "dirty" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "hits") (i 251)));
  finish m

(* ----- nginx-like HTTP request parser -----
   Requests are synthesized into a heap buffer; the parser extracts the
   method and path into fixed stack buffers and routes by a path hash.
   The declared chunk length is clamped before the body is copied into
   a 64-byte stack buffer. *)

let nginx ?(requests = 600) () =
  let m = create "nginx" in
  Cstd.add m;
  global m "routes" (8 * 8);
  global m "reqbuf" 8;
  global m "nbad" 8;
  let get = str_lit m "GET " in
  (* build one request into reqbuf: "GET /pNN HTTP/1.1\r\nLen: X\r\n\r\n<body>" *)
  func m "build_request" [ ("n", Ir.I64); ("body_len", Ir.I64) ] (fun b ->
      declp b "p" (v "reqbuf");
      do_ b (call "memcpy8" [ v "p"; addr get; i 4 ]);
      decl b "pos" (i 4);
      store_idx8 b (v "p") (v "pos") (i 47); (* '/' *)
      set b "pos" (add (v "pos") (i 1));
      store_idx8 b (v "p") (v "pos") (add (i 112) (rem_ (v "n") (i 8))); (* 'p'+r *)
      set b "pos" (add (v "pos") (i 1));
      store_idx8 b (v "p") (v "pos") (add (i 48) (rem_ (v "n") (i 10)));
      set b "pos" (add (v "pos") (i 1));
      store_idx8 b (v "p") (v "pos") (i 32); (* ' ' *)
      set b "pos" (add (v "pos") (i 1));
      (* chunk length byte (declared body length) *)
      store_idx8 b (v "p") (v "pos") (v "body_len");
      set b "pos" (add (v "pos") (i 1));
      (* body bytes *)
      for_ b "k" (i 0) (v "body_len") (fun b ->
          store_idx8 b (v "p") (add (v "pos") (v "k")) (band (v "k") (i 0xFF)));
      ret b (add (v "pos") (v "body_len")));
  func m "parse_request" [ ("len", Ir.I64) ] (fun b ->
      declp b "p" (v "reqbuf");
      (* method check *)
      if_ b (ne (idx8 (v "p") (i 0)) (i 71)) (fun b -> ret b (i (-1))); (* 'G' *)
      (* extract path into a stack buffer *)
      decl_arr b "path" 8; (* 64 bytes *)
      decl b "k" (i 4);
      decl b "n" (i 0);
      while_ b (ne (idx8 (v "p") (v "k")) (i 32)) (fun b ->
          store_idx8 b (addr "path") (v "n") (idx8 (v "p") (v "k"));
          set b "k" (add (v "k") (i 1));
          set b "n" (add (v "n") (i 1)));
      set b "k" (add (v "k") (i 1));
      (* read declared body length and copy the body to a stack buffer *)
      decl b "blen" (idx8 (v "p") (v "k"));
      set b "k" (add (v "k") (i 1));
      decl_arr b "body" 8; (* 64 bytes *)
      decl b "limit" (v "blen");
      if_ b (gt (v "limit") (i 64)) (fun b -> set b "limit" (i 64));
      do_ b (call "memcpy8" [ addr "body"; add (v "p") (v "k"); v "limit" ]);
      (* route on path hash *)
      decl b "h" (i 0);
      for_ b "q" (i 0) (v "n") (fun b ->
          set b "h" (add (mul (v "h") (i 31)) (idx8 (addr "path") (v "q"))));
      decl b "r" (band (v "h") (i 7));
      store_idx b (addr "routes") (v "r") (add (idx (addr "routes") (v "r")) (i 1));
      ret b (v "r"));
  func m "main" [] (fun b ->
      set b "reqbuf" (call "sbrk" [ i 4096 ]);
      do_ b (call "rand_seed" [ i 8080 ]);
      for_ b "r" (i 0) (i requests) (fun b ->
          decl b "blen" (rem_ (call "rand_next" []) (i 48));
          decl b "len" (call "build_request" [ v "r"; v "blen" ]);
          if_ b (lt (call "parse_request" [ v "len" ]) (i 0)) (fun b ->
              set b "nbad" (add (v "nbad") (i 1))));
      Cstd.print b m "NGINX routes:";
      for_ b "r" (i 0) (i 8) (fun b ->
          Cstd.print b m " ";
          do_ b (call "print_int" [ idx (addr "routes") (v "r") ]));
      Cstd.print b m " bad=";
      do_ b (call "print_int" [ v "nbad" ]);
      do_ b (call "print_nl" []);
      ret b (v "nbad"));
  finish m
