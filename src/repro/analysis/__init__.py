"""Analysis utilities behind the paper's characterisation and evaluation figures."""
