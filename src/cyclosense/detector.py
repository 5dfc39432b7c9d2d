"""Empty placeholder: a window's detection statistic is scd.alpha_maxima at the
one-column config replace(cfg, alpha_grid=(alpha0_bin,)). The module stays only
because perfbench/layertrace.py imports every module of its LAYERS by name;
ROADMAP item 1 deletes the module together with that entry.
"""
