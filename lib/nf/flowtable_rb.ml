open Ir.Dsl

(* Node layout (8-byte fields): key +0, value +8, left +16, right +24,
   parent +32, color +40 (1 = red, 0 = black).  The null pointer 0 acts as
   the black sentinel; its color is never loaded — guards check for 0
   first. *)

let o_key = 0
let o_val = 8
let o_left = 16
let o_right = 24
let o_parent = 32
let o_color = 40
let red = 1
let black = 0

let fld node off : Ir.Dsl.e = v node +: i off

(* left_rotate(x): pivot x's right child y above x.  right_rotate is the
   mirror image; [rotate ~left] generates either. *)
let rotate ~left name root =
  let down = if left then o_right else o_left in
  let up = if left then o_left else o_right in
  func name [ "x" ]
    [
      load8 "y" (fld "x" down);
      (* x.down = y.up *)
      load8 "b" (fld "y" up);
      store8 (fld "x" down) (v "b");
      if_ (v "b" <>: i 0) [ store8 (fld "b" o_parent) (v "x") ] [];
      (* y replaces x under x's parent *)
      load8 "xp" (fld "x" o_parent);
      store8 (fld "y" o_parent) (v "xp");
      if_ (v "xp" =: i 0)
        [ store8 root (v "y") ]
        [
          load8 "pl" (fld "xp" o_left);
          if_ (v "x" =: v "pl")
            [ store8 (fld "xp" o_left) (v "y") ]
            [ store8 (fld "xp" o_right) (v "y") ];
        ];
      (* x becomes y's [up] child *)
      store8 (fld "y" up) (v "x");
      store8 (fld "x" o_parent) (v "y");
      ret_none;
    ]

(* One side of the fixup loop body; mirrored by [side]. *)
let fixup_case ~left_side =
  let gp_other = if left_side then o_right else o_left in
  let rot_inner = if left_side then "rb_rotate_left" else "rb_rotate_right" in
  let rot_outer = if left_side then "rb_rotate_right" else "rb_rotate_left" in
  [
    (* uncle *)
    load8 "u" (fld "gp" gp_other);
    "ucolor" <-- i black;
    if_ (v "u" <>: i 0) [ load8 "ucolor" (fld "u" o_color) ] [];
    if_
      (v "ucolor" =: i red)
      [
        (* case 1: recolor and ascend *)
        store8 (fld "p" o_color) (i black);
        store8 (fld "u" o_color) (i black);
        store8 (fld "gp" o_color) (i red);
        "z" <-- v "gp";
      ]
      [
        (* case 2: inner child — rotate z's parent *)
        load8 "same" (fld "p" gp_other);
        if_ (v "z" =: v "same")
          [ "z" <-- v "p"; call_ rot_inner [ v "z" ] ]
          [];
        (* case 3: recolor and rotate grandparent *)
        load8 "p2" (fld "z" o_parent);
        store8 (fld "p2" o_color) (i black);
        load8 "gp2" (fld "p2" o_parent);
        if_ (v "gp2" <>: i 0)
          [ store8 (fld "gp2" o_color) (i red); call_ rot_outer [ v "gp2" ] ]
          [];
      ];
  ]

let make () =
  let root_region =
    Ir.Memory.array_spec ~name:"rb_root" ~elem_width:8 ~count:1 ()
  in
  let regions = [ root_region ] in
  let root = i (Nf_def.region_base regions "rb_root") in
  let fixup =
    func "rb_fixup" [ "z" ]
      [
        while_ (i 1)
          [
            load8 "p" (fld "z" o_parent);
            if_ (v "p" =: i 0) [ break_ ] [];
            load8 "pcolor" (fld "p" o_color);
            if_ (v "pcolor" =: i black) [ break_ ] [];
            (* parent is red, hence not the root: grandparent exists *)
            load8 "gp" (fld "p" o_parent);
            load8 "gl" (fld "gp" o_left);
            if_ (v "p" =: v "gl") (fixup_case ~left_side:true)
              (fixup_case ~left_side:false);
          ];
        (* root is always black *)
        load8 "r" root;
        if_ (v "r" <>: i 0) [ store8 (fld "r" o_color) (i black) ] [];
        ret_none;
      ]
  in
  let functions =
    [
      rotate ~left:true "rb_rotate_left" root;
      rotate ~left:false "rb_rotate_right" root;
      fixup;
      func Flowtable.lookup_name [ "key"; "h" ]
        [
          load8 "node" root;
          while_
            (v "node" <>: i 0)
            [
              load8 "k" (v "node");
              if_ (v "key" =: v "k")
                [ load8 "val" (v "node" +: i o_val); ret (v "val") ]
                [];
              if_ (v "key" <: v "k")
                [ load8 "node" (v "node" +: i o_left) ]
                [ load8 "node" (v "node" +: i o_right) ];
            ];
          ret (i 0);
        ];
      func Flowtable.insert_name [ "key"; "h"; "value" ]
        [
          alloc "z" 48;
          store8 (fld "z" o_key) (v "key");
          store8 (fld "z" o_val) (v "value");
          store8 (fld "z" o_left) (i 0);
          store8 (fld "z" o_right) (i 0);
          store8 (fld "z" o_parent) (i 0);
          store8 (fld "z" o_color) (i red);
          load8 "x" root;
          if_ (v "x" =: i 0)
            [ store8 (fld "z" o_color) (i black); store8 root (v "z"); ret_none ]
            [];
          (* BST descent tracking the parent *)
          "y" <-- i 0;
          while_
            (v "x" <>: i 0)
            [
              "y" <-- v "x";
              load8 "k" (v "x");
              if_ (v "key" <: v "k")
                [ load8 "x" (v "x" +: i o_left) ]
                [ load8 "x" (v "x" +: i o_right) ];
            ];
          store8 (fld "z" o_parent) (v "y");
          load8 "ky" (v "y");
          if_ (v "key" <: v "ky")
            [ store8 (fld "y" o_left) (v "z") ]
            [ store8 (fld "y" o_right) (v "z") ];
          call_ "rb_fixup" [ v "z" ];
          ret_none;
        ];
    ]
  in
  {
    Flowtable.ft_name = "red-black-tree";
    regions;
    heap_bytes = 256 * 1024 * 1024;
    functions;
    hash = None;
    manual_skew = false;
  }
