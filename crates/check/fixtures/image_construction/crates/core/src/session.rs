// Seeded negative for `dynlint --fixture image-construction`. NOT compiled:
// this file exists only to be linted, under a path that ends like the real
// `crates/core/src/session.rs`. It is a session driver that builds one
// more image on the side — a copy of the symbol table per rank, with no
// hooks and no observer — next to the one helper that may.

fn process_images(app: &AppSpec, vt: &Arc<VtLib>, static_instr: bool) -> Arc<Vec<Arc<Image>>> {
    let image = |rank| {
        let img = app.build_image(static_instr);
        img.set_observer(VtRankHooks::new(Arc::clone(vt), rank));
        img
    };
    Arc::new((0..app.mode.processes()).map(image).collect())
}

fn try_run_session(app: &AppSpec, cfg: SessionConfig) -> SessionReport {
    let images = process_images(app, &vt, true);
    let scratch = Image::new(Program::new(app.name.clone(), app.functions.clone()));
    run(images, scratch)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_build_an_image() {
        let img = ImageBuilder::new("t").build();
        assert!(img.is_empty());
    }
}
